package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"reflect"
	"testing"
)

// fuzzSeedSnapshot builds a small but fully populated snapshot so the
// fuzzer starts from a structurally valid envelope and mutates inward:
// every optional block (rows, counts, energy, sections) is present, and
// the sparse counter section has empty sites, single-label sites and
// sites with several labels, including a count that needs a multi-byte
// varint.
func fuzzSeedSnapshot() *Snapshot {
	s := &Snapshot{
		Fingerprint: Fingerprint{
			App: "segmentation", Backend: "rsu", Seed: 42,
			Iterations: 10, BurnIn: 2, Compile: true,
			AnnealStartT: 2.0, AnnealRate: 0.95, Tag: "units=4",
		},
		Sweep: 3, W: 4, H: 2, M: 3,
		Labels: []uint8{0, 1, 2, 0, 1, 2, 0, 1},
		Chain:  [4]uint64{1, 2, 3, 4},
		Rows:   [][4]uint64{{5, 6, 7, 8}, {9, 10, 11, 12}},
		Counts: []uint32{
			3, 0, 1, 0, 4, 0, 1, 1, 1, 0, 0, 0,
			0, 0, 200, 2, 0, 0, 0, 5, 9, 1000, 0, 1,
		},
		Energy: []float64{-12.5, -11.25},
	}
	s.SetSection(SectionFault, []byte(`{"version":2}`))
	s.SetSection(SectionAging, []byte{0x01, 0x02})
	return s
}

// FuzzCheckpointLoad drives arbitrary bytes through the snapshot decode
// path that Load uses (Load is os.ReadFile + Decode) and enforces the
// decoder's contract:
//
//  1. It never panics, whatever the input.
//  2. Every failure is in the typed-error family: ErrCorrupt or
//     ErrVersion, so resume logic can always classify the damage.
//  3. Every success is semantically closed: the decoded snapshot
//     validates, re-encodes, and the re-encoded bytes decode to a
//     DeepEqual snapshot — with the second encode a byte-exact fixed
//     point (the canonical form).
func FuzzCheckpointLoad(f *testing.F) {
	seed := fuzzSeedSnapshot()
	valid, err := Encode(seed)
	if err != nil {
		f.Fatalf("encoding seed snapshot: %v", err)
	}
	f.Add(valid)

	// Minimal snapshot: no optional blocks at all.
	min := &Snapshot{
		Sweep: 0, W: 2, H: 2, M: 2,
		Labels: []uint8{0, 1, 1, 0},
	}
	if data, err := Encode(min); err == nil {
		f.Add(data)
	}

	// Structured damage the property loop must classify as corruption:
	// truncation, a flipped payload bit, trailing garbage, and a
	// version splice with a recomputed (valid) checksum.
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+3] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), 0xEE))
	spliced := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(spliced[len(magic):], Version+7)
	body := spliced[:len(spliced)-trailerLen]
	binary.LittleEndian.PutUint64(spliced[len(spliced)-trailerLen:], crc64.Checksum(body, crcTable))
	f.Add(spliced)
	f.Add([]byte(magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode error outside the typed family: %v", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("decoded snapshot fails Validate: %v", err)
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("decoding the re-encoded snapshot: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("snapshot not preserved across a re-encode round-trip:\n%+v\nvs\n%+v", s, s2)
		}
		// The encoder output is the canonical byte form: encoding the
		// round-tripped snapshot must be a fixed point.
		re2, err := Encode(s2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encode is not a fixed point: %d vs %d bytes", len(re), len(re2))
		}
	})
}
