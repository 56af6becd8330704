package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary, recorded by the
// benchmark around its own call into a layer. Spans of one job share a
// Trace; Parent is the ID of the span that caused this one (0: root).
type Span struct {
	ID, Parent, Trace int64
	Name              string
	Start, End        time.Time
}

// Tracer keeps spans in memory for the traced run. A nil *Tracer is the
// untraced run: every method is a no-op, so call sites need no guard.
type Tracer struct {
	mu    sync.Mutex
	next  int64
	spans []Span
	// work is the wall time the benchmark spent recording spans, for
	// trace.overhead_pct.
	work time.Duration
}

// NewID reserves a span ID, so children recorded before their parent
// ends can name it. Returns 0 on a nil tracer.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// Add records a finished span, assigning an ID when sp.ID is 0.
func (t *Tracer) Add(sp Span) int64 {
	if t == nil {
		return 0
	}
	t0 := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp.ID == 0 {
		t.next++
		sp.ID = t.next
	}
	t.spans = append(t.spans, sp)
	t.work += time.Since(t0)
	return sp.ID
}

// Time runs fn inside a root span and returns fn's error.
func (t *Tracer) Time(name string, fn func() error) error {
	start := now()
	err := fn()
	t.Add(Span{Name: name, Start: start, End: now()})
	return err
}

// Work returns the accumulated trace-only bookkeeping time.
func (t *Tracer) Work() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.work
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Durations returns the durations of every span with the given name, in
// milliseconds.
func (t *Tracer) Durations(name string) []float64 {
	var out []float64
	for _, sp := range t.Spans() {
		if sp.Name == name {
			out = append(out, ms(sp.End.Sub(sp.Start)))
		}
	}
	return out
}

// SelfTimeMedians returns the median self time, in milliseconds, of
// the spans of each name.
func (t *Tracer) SelfTimeMedians() map[string]float64 {
	spans := t.Spans()
	self := SelfTimes(spans)
	byName := map[string][]float64{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], ms(self[sp.ID]))
	}
	out := make(map[string]float64, len(byName))
	for name, v := range byName {
		out[name] = median(v)
	}
	return out
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover (overlapping children
// count once; child time outside the parent's interval is ignored).
func SelfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, sp := range spans {
		out[sp.ID] = sp.End.Sub(sp.Start) - covered(sp, children[sp.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
