// Package checkpoint is the crash-safe persistence layer of the
// inference runtime: a versioned, checksummed snapshot format that
// captures everything an MCMC chain needs to resume bit-exactly — the
// label field, the sweep position, every per-row RNG stream state, the
// diagnostics accumulators, and opaque backend sections (fault-session
// state, RET aging state) — plus atomic write/load primitives that
// guarantee a reader never observes a torn snapshot.
//
// Format (all integers little-endian):
//
//	[8]  magic "RSUGCKPT"
//	[4]  format version (uint32, see Version)
//	[8]  payload length (uint64)
//	[n]  payload
//	[8]  CRC-64/ECMA over everything above (uint64)
//
// The checksum covers the header too, so a truncated, bit-flipped or
// version-spliced file is rejected with ErrCorrupt before any field is
// interpreted. Snapshots are byte-deterministic: the same chain state
// always encodes to the same bytes, for any worker count, so snapshot
// files can themselves be golden-diffed. Since format v3 the payload
// stores the mode counters sparsely (per site, only the labels the
// chain has drawn), so a snapshot's size follows what the chain
// produced rather than W*H*M.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/bits"
	"sort"
)

// Format constants.
const (
	// Version is the current snapshot format version. Decoders accept
	// exactly this version; the versioning rule (DESIGN.md §10) is that
	// any change to the payload layout bumps it.
	//
	// v2: the label field is one byte per site (labels are bit-packed
	// uint8 throughout the runtime; M <= 256), halving snapshot size
	// versus the v1 uint16 encoding.
	//
	// v3: the mode counters are sparse. Per site, a uvarint count of
	// nonzero labels, then one (u8 label, uvarint count) pair per
	// nonzero label in ascending label order; v2 stored W*H*M dense
	// uint32s.
	Version = 3

	magic      = "RSUGCKPT"
	headerLen  = len(magic) + 4 + 8
	trailerLen = 8

	// maxPayload bounds decoder allocations against corrupt length
	// fields (1 GiB is orders of magnitude above any real chain).
	maxPayload = 1 << 30
)

// Typed decode errors.
var (
	// ErrCorrupt reports a snapshot that failed structural validation:
	// bad magic, truncation, checksum mismatch, or an inconsistent
	// payload. A chaos-killed run can leave at most a torn temp file,
	// never a torn snapshot, so ErrCorrupt on a real snapshot path
	// means external damage.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion reports a structurally valid snapshot written by an
	// incompatible format version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrMismatch reports a snapshot whose fingerprint does not match
	// the run configuration attempting to resume from it.
	ErrMismatch = errors.New("checkpoint: snapshot does not match run configuration")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Fingerprint identifies the run a snapshot belongs to. Resuming
// checks it field-for-field — every field changes the chain's byte
// stream, so resuming across any difference would silently diverge
// from the uninterrupted golden run. Worker count is deliberately NOT
// part of the fingerprint: RNG streams attach to rows, so a snapshot
// taken at W=1 resumes bit-exactly at W=N and vice versa.
type Fingerprint struct {
	// App names the application instance ("segmentation", ...).
	App string
	// Backend names the sampling backend ("rsu", "software-gibbs", ...).
	Backend string
	// Seed is the chain seed.
	Seed uint64
	// Iterations and BurnIn are the chain's total sweep budget.
	Iterations int
	BurnIn     int
	// Compile records whether the precomputed-table path was enabled
	// (bit-identical either way, but recorded for provenance).
	Compile bool
	// AnnealStartT and AnnealRate record the cooling schedule (both 0
	// when annealing is off).
	AnnealStartT float64
	AnnealRate   float64
	// Tag carries backend-specific parameters that must also match
	// (RSU width/mode, fault schedule/policy/seed), in a canonical
	// rendering chosen by the layer that owns them.
	Tag string
}

// Check returns ErrMismatch (wrapped, with the first differing field
// named) unless other matches f exactly.
func (f Fingerprint) Check(other Fingerprint) error {
	diff := ""
	switch {
	case f.App != other.App:
		diff = fmt.Sprintf("app %q vs %q", f.App, other.App)
	case f.Backend != other.Backend:
		diff = fmt.Sprintf("backend %q vs %q", f.Backend, other.Backend)
	case f.Seed != other.Seed:
		diff = fmt.Sprintf("seed %d vs %d", f.Seed, other.Seed)
	case f.Iterations != other.Iterations:
		diff = fmt.Sprintf("iterations %d vs %d", f.Iterations, other.Iterations)
	case f.BurnIn != other.BurnIn:
		diff = fmt.Sprintf("burn-in %d vs %d", f.BurnIn, other.BurnIn)
	case f.Compile != other.Compile:
		diff = fmt.Sprintf("compile %v vs %v", f.Compile, other.Compile)
	case math.Float64bits(f.AnnealStartT) != math.Float64bits(other.AnnealStartT),
		math.Float64bits(f.AnnealRate) != math.Float64bits(other.AnnealRate):
		diff = "anneal schedule"
	case f.Tag != other.Tag:
		diff = fmt.Sprintf("tag %q vs %q", f.Tag, other.Tag)
	}
	if diff == "" {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrMismatch, diff)
}

// Snapshot is one resumable chain state, captured strictly at a sweep
// boundary (no sample in flight anywhere).
type Snapshot struct {
	// Fingerprint identifies the run configuration (see Fingerprint).
	Fingerprint Fingerprint
	// Sweep is the index of the next sweep to run: the snapshot was
	// taken after sweep Sweep-1 completed.
	Sweep int
	// W, H, M are the model geometry and label-space size.
	W, H, M int
	// Labels is the row-major bit-packed label field (len W*H, each in
	// [0, M)), sharing img.LabelMap's byte-per-site representation so
	// capture and restore are straight copies.
	Labels []uint8
	// Chain is the sequential (raster-schedule) stream state.
	Chain [4]uint64
	// Rows holds one stream state per image row (len H for
	// checkerboard runs, nil for raster runs).
	Rows [][4]uint64
	// Counts is the per-site per-label sample counter behind the
	// marginal-MAP estimate (len W*H*M, nil when mode tracking is
	// off).
	Counts []uint32
	// Energy is the energy trace accumulated so far.
	Energy []float64
	// Sections carries opaque backend state blobs keyed by name
	// ("fault": the fault session, "aging": RET wear-out state, ...).
	// Encoded in sorted key order so snapshots stay byte-deterministic.
	Sections map[string][]byte
}

// Well-known section names.
const (
	// SectionFault holds the fault-injection session state
	// (fault.Session.MarshalBinary).
	SectionFault = "fault"
	// SectionAging holds RET wear-out state
	// (ret.AgingCircuit.MarshalBinary), one blob per aged circuit.
	SectionAging = "aging"
)

// Validate checks the snapshot's internal consistency (geometry,
// label range, stream counts). Encode and Decode both call it, so an
// inconsistent snapshot can be neither written nor loaded.
func (s *Snapshot) Validate() error {
	switch {
	case s.W <= 0 || s.H <= 0:
		return fmt.Errorf("%w: geometry %dx%d", ErrCorrupt, s.W, s.H)
	case s.M < 2 || s.M > 256:
		return fmt.Errorf("%w: label count %d", ErrCorrupt, s.M)
	case s.Sweep < 0:
		return fmt.Errorf("%w: negative sweep %d", ErrCorrupt, s.Sweep)
	case len(s.Labels) != s.W*s.H:
		return fmt.Errorf("%w: %d labels for %dx%d grid", ErrCorrupt, len(s.Labels), s.W, s.H)
	case s.Rows != nil && len(s.Rows) != s.H:
		return fmt.Errorf("%w: %d row streams for %d rows", ErrCorrupt, len(s.Rows), s.H)
	case s.Counts != nil && len(s.Counts) != s.W*s.H*s.M:
		return fmt.Errorf("%w: %d mode counters, want %d", ErrCorrupt, len(s.Counts), s.W*s.H*s.M)
	}
	for i, l := range s.Labels {
		if int(l) >= s.M {
			return fmt.Errorf("%w: label %d at site %d outside [0,%d)", ErrCorrupt, l, i, s.M)
		}
	}
	return nil
}

// Clone returns a deep copy (sections included).
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.Labels = append([]uint8(nil), s.Labels...)
	if s.Rows != nil {
		c.Rows = append([][4]uint64(nil), s.Rows...)
	}
	if s.Counts != nil {
		c.Counts = append([]uint32(nil), s.Counts...)
	}
	if s.Energy != nil {
		c.Energy = append([]float64(nil), s.Energy...)
	}
	if s.Sections != nil {
		c.Sections = make(map[string][]byte, len(s.Sections))
		for k, v := range s.Sections {
			c.Sections[k] = append([]byte(nil), v...)
		}
	}
	return &c
}

// SetSection attaches (or replaces) a named opaque state blob.
func (s *Snapshot) SetSection(name string, blob []byte) {
	if s.Sections == nil {
		s.Sections = make(map[string][]byte)
	}
	s.Sections[name] = blob
}

// Section returns a named blob (nil, false when absent).
func (s *Snapshot) Section(name string) ([]byte, bool) {
	blob, ok := s.Sections[name]
	return blob, ok
}

// enc is a little-endian payload writer.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *enc) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// counts writes the sparse mode-count section: for each site, the
// number of nonzero labels as a uvarint, then (u8 label, uvarint count)
// for each of them in ascending label order. One pass per site: the
// label count goes into a one-byte slot reserved ahead of the pairs,
// widened in place in the rare case it needs two bytes (M > 127).
func (e *enc) counts(counts []uint32, m int) {
	buf := e.buf // a local slice header stays in registers
	for site := 0; site < len(counts); site += m {
		at := len(buf)
		buf = append(buf, 0)
		nnz := 0
		for l, c := range counts[site : site+m] {
			if c != 0 {
				buf = binary.AppendUvarint(append(buf, uint8(l)), uint64(c))
				nnz++
			}
		}
		if nnz < 0x80 {
			buf[at] = uint8(nnz)
			continue
		}
		buf = append(buf, 0)
		copy(buf[at+2:], buf[at+1:])
		binary.PutUvarint(buf[at:], uint64(nnz))
	}
	e.buf = buf
}

// uvarintLen is the byte length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// dec is the matching bounds-checked reader; the first overrun poisons
// it and every subsequent read reports failure.
type dec struct {
	buf []byte
	off int
	bad bool
}

func (d *dec) take(n int) []byte {
	if d.bad || n < 0 || d.off+n > len(d.buf) {
		d.bad = true
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}
func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) str() string  { return string(d.take(int(d.u32()))) }
func (d *dec) blob() []byte {
	n := d.u64()
	if n > maxPayload {
		d.bad = true
		return nil
	}
	return append([]byte(nil), d.take(int(n))...)
}
func (d *dec) bool() bool { return d.u8() != 0 }

// uvarint reads a minimally encoded uvarint; a truncated, overlong or
// non-minimal encoding poisons the reader, so every accepted payload
// has exactly one byte form.
func (d *dec) uvarint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 || n != uvarintLen(v) {
		d.bad = true
		return 0
	}
	d.off += n
	return v
}

// counts reads the sparse mode-count section of sites sites into a
// dense sites*m array, rejecting anything enc.counts cannot produce:
// more than m nonzero labels at a site, a label out of range or out of
// ascending order, a zero count, or a count above MaxUint32. A dense
// array past the payload cap is refused before it is allocated.
func (d *dec) counts(sites, m int) ([]uint32, error) {
	if sites > len(d.buf)-d.off { // every site takes at least one byte
		return nil, fmt.Errorf("%w: counter section truncated", ErrCorrupt)
	}
	if sites*m > maxPayload/4 { // the dense block stays within the payload cap
		return nil, fmt.Errorf("%w: implausible counter block of %d sites x %d labels", ErrCorrupt, sites, m)
	}
	counts := make([]uint32, sites*m)
	for site := 0; site < sites; site++ {
		nnz := d.uvarint()
		if nnz > uint64(m) {
			return nil, fmt.Errorf("%w: site %d has %d nonzero labels, M=%d", ErrCorrupt, site, nnz, m)
		}
		row := counts[site*m : site*m+m]
		next := 0 // the smallest label the next pair may carry
		for k := uint64(0); k < nnz; k++ {
			l := int(d.u8())
			c := d.uvarint()
			switch {
			case d.bad:
				return nil, fmt.Errorf("%w: counter section truncated or malformed at site %d", ErrCorrupt, site)
			case l < next || l >= m:
				return nil, fmt.Errorf("%w: site %d label %d out of order or outside [0,%d)", ErrCorrupt, site, l, m)
			case c == 0 || c > math.MaxUint32:
				return nil, fmt.Errorf("%w: site %d label %d count %d outside [1,MaxUint32]", ErrCorrupt, site, l, c)
			}
			row[l] = uint32(c)
			next = l + 1
		}
	}
	if d.bad {
		return nil, fmt.Errorf("%w: counter section truncated", ErrCorrupt)
	}
	return counts, nil
}

// Encode serializes the snapshot to its canonical byte form (header,
// payload, checksum), writing all three into one buffer sized up front
// by encodedLen.
func Encode(s *Snapshot) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Sections are written sorted by name for byte determinism.
	names := make([]string, 0, len(s.Sections))
	for name := range s.Sections {
		names = append(names, name)
	}
	sort.Strings(names)

	e := enc{buf: make([]byte, 0, encodedLen(s, names))}
	e.buf = append(e.buf, magic...)
	e.u32(Version)
	e.u64(0) // payload length, patched below
	// Fingerprint.
	e.str(s.Fingerprint.App)
	e.str(s.Fingerprint.Backend)
	e.u64(s.Fingerprint.Seed)
	e.u64(uint64(s.Fingerprint.Iterations))
	e.u64(uint64(s.Fingerprint.BurnIn))
	e.bool(s.Fingerprint.Compile)
	e.f64(s.Fingerprint.AnnealStartT)
	e.f64(s.Fingerprint.AnnealRate)
	e.str(s.Fingerprint.Tag)
	// Geometry and position.
	e.u64(uint64(s.Sweep))
	e.u64(uint64(s.W))
	e.u64(uint64(s.H))
	e.u64(uint64(s.M))
	// Label field: bit-packed, one byte per site (M <= 256).
	e.buf = append(e.buf, s.Labels...)
	// RNG streams.
	for _, w := range s.Chain {
		e.u64(w)
	}
	e.u64(uint64(len(s.Rows)))
	for _, row := range s.Rows {
		for _, w := range row {
			e.u64(w)
		}
	}
	// Diagnostics accumulators: a presence byte, then the sparse mode
	// counters of every site.
	e.bool(s.Counts != nil)
	e.counts(s.Counts, s.M)
	e.u64(uint64(len(s.Energy)))
	for _, v := range s.Energy {
		e.f64(v)
	}
	e.u64(uint64(len(names)))
	for _, name := range names {
		e.str(name)
		e.bytes(s.Sections[name])
	}

	binary.LittleEndian.PutUint64(e.buf[len(magic)+4:], uint64(len(e.buf)-headerLen))
	e.u64(crc64.Checksum(e.buf, crcTable))
	return e.buf, nil
}

// encodedLen is the length of Encode's output for s, whose section
// names are names, with the counter section at its one-byte-per-site
// floor: the (label, count) pairs the chain has drawn are appended past
// it. Sizing them exactly would take another pass over all W*H*M
// counters, which costs more than the buffer growth it saves.
func encodedLen(s *Snapshot, names []string) int {
	n := headerLen +
		4 + len(s.Fingerprint.App) + 4 + len(s.Fingerprint.Backend) + 3*8 + 1 + 2*8 + 4 + len(s.Fingerprint.Tag) +
		4*8 + // sweep and geometry
		len(s.Labels) +
		len(s.Chain)*8 + 8 + len(s.Rows)*len(s.Chain)*8 +
		1 + len(s.Counts)/s.M +
		8 + len(s.Energy)*8 +
		8 + trailerLen
	for _, name := range names {
		n += 4 + len(name) + 8 + len(s.Sections[name])
	}
	return n
}

// Decode parses and fully validates a snapshot produced by Encode.
// Truncated, bit-flipped or trailing-garbage input fails with
// ErrCorrupt; a valid envelope of another format version fails with
// ErrVersion.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	payloadLen := binary.LittleEndian.Uint64(data[len(magic)+4:])
	if payloadLen > maxPayload || int(payloadLen) != len(data)-headerLen-trailerLen {
		return nil, fmt.Errorf("%w: payload length %d inconsistent with file size %d", ErrCorrupt, payloadLen, len(data))
	}
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	if got := crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %016x, want %016x)", ErrCorrupt, got, want)
	}
	// Only after integrity is proven: interpret the version and fields.
	if version != Version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, version, Version)
	}

	d := &dec{buf: data[headerLen : len(data)-trailerLen]}
	s := &Snapshot{}
	s.Fingerprint.App = d.str()
	s.Fingerprint.Backend = d.str()
	s.Fingerprint.Seed = d.u64()
	s.Fingerprint.Iterations = int(d.u64())
	s.Fingerprint.BurnIn = int(d.u64())
	s.Fingerprint.Compile = d.bool()
	s.Fingerprint.AnnealStartT = d.f64()
	s.Fingerprint.AnnealRate = d.f64()
	s.Fingerprint.Tag = d.str()
	s.Sweep = int(d.u64())
	s.W = int(d.u64())
	s.H = int(d.u64())
	s.M = int(d.u64())
	if d.bad || s.W <= 0 || s.H <= 0 || s.W > maxPayload || s.H > maxPayload || s.W*s.H > maxPayload/2 || s.M < 2 || s.M > 256 {
		return nil, fmt.Errorf("%w: implausible geometry", ErrCorrupt)
	}
	s.Labels = append([]uint8(nil), d.take(s.W*s.H)...)
	for i := range s.Chain {
		s.Chain[i] = d.u64()
	}
	nRows := d.u64()
	if nRows > uint64(s.H) {
		return nil, fmt.Errorf("%w: %d row streams for %d rows", ErrCorrupt, nRows, s.H)
	}
	if nRows > 0 {
		s.Rows = make([][4]uint64, nRows)
		for i := range s.Rows {
			for j := range s.Rows[i] {
				s.Rows[i][j] = d.u64()
			}
		}
	}
	switch d.u8() {
	case 0:
	case 1:
		var err error
		if s.Counts, err = d.counts(s.W*s.H, s.M); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("%w: bad counter presence byte", ErrCorrupt)
	}
	nEnergy := d.u64()
	if nEnergy > maxPayload/8 {
		return nil, fmt.Errorf("%w: implausible energy trace", ErrCorrupt)
	}
	if nEnergy > 0 {
		s.Energy = make([]float64, nEnergy)
		for i := range s.Energy {
			s.Energy[i] = d.f64()
		}
	}
	nSections := d.u64()
	if nSections > 1024 {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, nSections)
	}
	for i := uint64(0); i < nSections; i++ {
		name := d.str()
		blob := d.blob()
		if d.bad {
			break
		}
		s.SetSection(name, blob)
	}
	if d.bad {
		return nil, fmt.Errorf("%w: payload truncated mid-field", ErrCorrupt)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
