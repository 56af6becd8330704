// Package fixture seeds deadassign violations and allowed patterns.
package fixture

// Sum carries the seed tree's exact bug: a range variable blanked for
// no reason (range variables may simply go unused).
func Sum(weights []float64) float64 {
	total := 0.0
	for i, w := range weights {
		_ = i // want "range variable"
		total += w
	}
	return total
}

// BlankParam blanks a parameter, which may go unused in Go.
func BlankParam(unused int) {
	_ = unused // want "parameter"
}

// AlreadyUsed blanks a variable that other statements already use, so
// the blank assignment silences nothing.
func AlreadyUsed(n int) int {
	doubled := n * 2
	_ = doubled // want "already used"
	return doubled
}

// silencer is the load-bearing pattern: x would otherwise be declared
// and not used, so `_ = x` is required to compile. Must not be flagged.
func silencer(f func() int) {
	x := f()
	_ = x
}

// effects discards a call result: the call still runs. Must not be
// flagged.
func effects(f func() error) {
	_ = f()
}

// boundsHint discards an index expression, a recognized bounds-check
// elimination hint. Must not be flagged.
func boundsHint(xs []int) {
	_ = xs[2]
}

// Asserter documents an interface contract with a package-level blank
// declaration (a declaration, not an assignment). Must not be flagged.
type Asserter struct{}

func (Asserter) Assert() {}

type asserts interface{ Assert() }

var _ asserts = Asserter{}

// DeprecatedShim carries a deprecation mark, which earns no exemption:
// its dead blank assignment is flagged like any other.
//
// Deprecated: use silencer.
func DeprecatedShim(unused int) {
	_ = unused // want "parameter"
}
