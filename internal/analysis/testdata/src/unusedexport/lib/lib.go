// Package lib is the imported half of the unusedexport fixture.
package lib

// Used is named by the importing package, so it is not reported; the allow
// above it silences nothing and is reported as stale.
//
//potlint:allow unusedexport stale: Used has a caller // want "unused suppression"
func Used() int { return 1 }

func Unused() int { return 2 } // want "exported func Unused"

type Dead struct{} // want "exported type Dead"

const Limit = 3 // want "exported const Limit"

var Counter int // want "exported var Counter"

// OnlyTests is named by lib_test.go alone, which does not count.
func OnlyTests() int { return 4 } // want "exported func OnlyTests"

// Name satisfies fmt.Stringer, so String is exempt; Shout satisfies no
// interface.
type Name string

func (n Name) String() string { return string(n) }

func (n Name) Shout() string { return string(n) + "!" } // want "exported method Shout"

// Shape is implemented by Square, so Area is exempt.
type Shape interface{ Area() int }

type Square struct{ Side int }

func (s Square) Area() int { return s.Side * s.Side }

// Kept has no caller; its allow silences the finding.
//
//potlint:allow unusedexport fixture: an allow keeps an uncalled export
func Kept() {}
