package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// countsSnapshot builds a minimal valid snapshot of a w x h grid with M
// labels whose mode counters are fill(site, label).
func countsSnapshot(w, h, m int, fill func(site, label int) uint32) *Snapshot {
	s := &Snapshot{
		Fingerprint: Fingerprint{App: "motion", Backend: "software-gibbs", Seed: 1, Iterations: 50, BurnIn: 30},
		Sweep:       31, W: w, H: h, M: m,
		Labels: make([]uint8, w*h),
		Counts: make([]uint32, w*h*m),
		Energy: []float64{-3.5},
	}
	for site := range s.Labels {
		s.Labels[site] = uint8(site % m)
		for l := 0; l < m; l++ {
			s.Counts[site*m+l] = fill(site, l)
		}
	}
	return s
}

// countsSectionLen is the number of bytes the sparse counter section
// of s occupies on the wire: the encoding with counters minus the one
// without (both carry the one presence byte).
func countsSectionLen(t *testing.T, s *Snapshot) int {
	t.Helper()
	with, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	bare := s.Clone()
	bare.Counts = nil
	without, err := Encode(bare)
	if err != nil {
		t.Fatal(err)
	}
	return len(with) - len(without)
}

// TestCountsRoundTrip is the codec's round-trip property over the
// counter shapes a chain produces: pre-burn-in (all zero), the smallest
// label space, a saturated full label space, extreme counts, and a
// seeded sparse histogram like a post-burn-in chain's. Every shape must
// decode DeepEqual and re-encode to the same bytes.
func TestCountsRoundTrip(t *testing.T) {
	src := rng.New(11)
	cases := []struct {
		name string
		s    *Snapshot
	}{
		{"all zero", countsSnapshot(5, 3, 7, func(int, int) uint32 { return 0 })},
		{"M=2", countsSnapshot(4, 4, 2, func(site, l int) uint32 { return uint32((site + l) % 3) })},
		{"M=256 all nonzero", countsSnapshot(3, 2, 256, func(site, l int) uint32 { return uint32(1 + site*256 + l) })},
		{"MaxUint32", countsSnapshot(2, 2, 5, func(site, l int) uint32 {
			if l == site%5 || l == 4 {
				return math.MaxUint32
			}
			return 0
		})},
		{"sparse seeded", countsSnapshot(16, 9, 49, func(int, int) uint32 {
			if src.Intn(10) != 0 {
				return 0
			}
			return uint32(1 + src.Intn(1<<20))
		})},
		{"fuzz seed", fuzzSeedSnapshot()},
	}
	for _, tc := range cases {
		data, err := Encode(tc.s)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.s) {
			t.Fatalf("%s: snapshot changed across a round trip", tc.name)
		}
		again, err := Encode(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) {
			t.Fatalf("%s: re-encode is not byte-identical", tc.name)
		}
	}
}

// TestEncodedLenFloor: with no drawn (label, count) pairs, encodedLen
// is the exact output length, so Encode fills its buffer without
// growing it.
func TestEncodedLenFloor(t *testing.T) {
	zero := countsSnapshot(6, 5, 49, func(int, int) uint32 { return 0 })
	zero.SetSection(SectionFault, []byte("state"))
	untracked := testSnapshot()
	untracked.Counts = nil
	for _, s := range []*Snapshot{zero, untracked} {
		data, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != cap(data) {
			t.Errorf("%dx%d M=%d: %d bytes encoded into a %d-byte buffer", s.W, s.H, s.M, len(data), cap(data))
		}
	}
}

// TestCountsSizeBound: with every count below 2^21 (three varint
// bytes), a site costs at most 4*M+2 bytes (a two-byte label count plus
// M (label, count) pairs of at most four bytes each), and a site with
// no samples costs one byte. The worst case meets the bound exactly.
func TestCountsSizeBound(t *testing.T) {
	const w, h = 3, 2
	for _, m := range []int{2, 49, 256} {
		worst := countsSnapshot(w, h, m, func(int, int) uint32 { return 1<<21 - 1 })
		bound := w * h * (4*m + 2)
		if m < 128 {
			bound = w * h * (4*m + 1) // the label count fits one byte
		}
		if got := countsSectionLen(t, worst); got != bound {
			t.Errorf("M=%d worst case: counter section %d bytes, want exactly %d", m, got, bound)
		}
		src := rng.New(uint64(m))
		sparse := countsSnapshot(w, h, m, func(int, int) uint32 {
			if src.Bool() {
				return 0
			}
			return uint32(src.Intn(1 << 21))
		})
		if got := countsSectionLen(t, sparse); got > w*h*(4*m+2) {
			t.Errorf("M=%d: counter section %d bytes, above the %d-byte bound", m, got, w*h*(4*m+2))
		}
		zero := countsSnapshot(w, h, m, func(int, int) uint32 { return 0 })
		if got := countsSectionLen(t, zero); got != w*h {
			t.Errorf("M=%d all zero: counter section %d bytes, want one per site (%d)", m, got, w*h)
		}
	}
}

// hostileCounts re-signs the encoding of a w x h snapshot with M
// labels with its counter section replaced by section (presence byte
// included). When cut is set the payload ends right after section, as
// a torn write would leave it; otherwise the energy and section tails
// follow.
func hostileCounts(t *testing.T, w, h, m int, section []byte, cut bool) []byte {
	t.Helper()
	s := &Snapshot{W: w, H: h, M: m, Labels: make([]uint8, w*h)}
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	// With no energy and no sections, the payload ends with the
	// presence byte, the energy length and the section count.
	at := len(data) - trailerLen - 8 - 8 - 1
	out := append(append([]byte(nil), data[:at]...), section...)
	if !cut {
		out = append(out, data[at+1:len(data)-trailerLen]...)
	}
	binary.LittleEndian.PutUint64(out[len(magic)+4:], uint64(len(out)-headerLen))
	return binary.LittleEndian.AppendUint64(out, crc64.Checksum(out, crcTable))
}

// TestDecodeRejectsHostileCounts: a checksum-valid envelope whose
// counter section Encode could not have produced fails with ErrCorrupt,
// never with a panic, a huge allocation or a silently different
// histogram.
func TestDecodeRejectsHostileCounts(t *testing.T) {
	// The harness builds valid envelopes: a well-formed section decodes.
	ok, err := Decode(hostileCounts(t, 2, 1, 3, []byte{1, 2, 0, 5, 2, 7, 1, 1, 1}, false))
	if err != nil {
		t.Fatalf("well-formed counter section rejected: %v", err)
	}
	if want := []uint32{5, 0, 7, 0, 1, 0}; !reflect.DeepEqual(ok.Counts, want) {
		t.Fatalf("decoded counts %v, want %v", ok.Counts, want)
	}

	over := binary.AppendUvarint([]byte{1, 1, 0}, 1<<32)
	cases := []struct {
		name    string
		section []byte
		cut     bool
	}{
		{"more than M nonzero labels", []byte{1, 4, 0, 1, 1, 1, 2, 1, 2, 1, 0}, false},
		{"huge nonzero-label count", []byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}, false},
		{"label equal to M", []byte{1, 1, 3, 1, 0}, false},
		{"labels descending", []byte{1, 2, 1, 1, 0, 1, 0}, false},
		{"label repeated", []byte{1, 2, 1, 1, 1, 1, 0}, false},
		{"zero count", []byte{1, 1, 0, 0, 0}, false},
		{"count above MaxUint32", append(over, 0), false},
		{"varint truncated", []byte{1, 1, 0, 0x80}, true},
		{"varint overlong", []byte{1, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}, false},
		{"varint not minimal", []byte{1, 1, 0, 0x81, 0x00, 0}, false},
		{"site missing", []byte{1, 0}, true},
		{"pair missing", []byte{1, 1, 0, 1, 1}, true},
		{"presence byte not 0 or 1", []byte{2, 0, 0}, false},
	}
	for _, tc := range cases {
		_, err := Decode(hostileCounts(t, 2, 1, 3, tc.section, tc.cut))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}

	// A geometry whose dense counter block would pass the 1 GiB payload
	// cap is refused before allocating it, even with one byte per site
	// present.
	const w, h, m = 1024, 1025, 256
	empty := append([]byte{1}, make([]byte, w*h)...)
	if _, err := Decode(hostileCounts(t, w, h, m, empty, false)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("oversized counter block: got %v, want ErrCorrupt", err)
	}
}

// TestEncodeGolden pins the v3 byte form of fuzzSeedSnapshot by its
// CRC-64 trailer and length. A change here is a format change: it must
// come with a Version bump (DESIGN.md §10.1).
func TestEncodeGolden(t *testing.T) {
	data, err := Encode(fuzzSeedSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	const wantLen, wantCRC = 363, "14604f6b678c9c2a"
	got := fmt.Sprintf("%016x", binary.LittleEndian.Uint64(data[len(data)-trailerLen:]))
	if len(data) != wantLen || got != wantCRC {
		t.Fatalf("v%d encoding of fuzzSeedSnapshot: %d bytes, CRC %s; pinned %d bytes, CRC %s",
			Version, len(data), got, wantLen, wantCRC)
	}
}

// BenchmarkEncodeSparse encodes the shape of a served motion job's
// last snapshot: 64x64 sites, M=49, each site holding 20 post-burn-in
// samples spread over a few labels around a site-specific center.
func BenchmarkEncodeSparse(b *testing.B) {
	const m = 49
	src := rng.New(3)
	s := countsSnapshot(64, 64, m, func(int, int) uint32 { return 0 })
	for site := 0; site < 64*64; site++ {
		center := 2 + src.Intn(m-4)
		for k := 0; k < 20; k++ {
			s.Counts[site*m+center+src.Intn(3)-src.Intn(3)]++
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(s); err != nil {
			b.Fatal(err)
		}
	}
}
