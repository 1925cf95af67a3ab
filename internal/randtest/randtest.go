// Package randtest centralizes seeding for randomized tests. Every test
// that draws randomness takes its seed from here, so that (a) a failure
// log always names the seed that reproduces it, and (b) one flag —
// `go test -args -seed=N` — replays any randomized test under a chosen
// seed without editing code.
package randtest

import (
	"flag"
	"math/rand"
	"testing"
)

var seedFlag = flag.Int64("seed", 0, "override the seed of randomized tests (0 keeps each test's default)")

// Seed returns the test's RNG seed — the -seed override when set, def
// otherwise — and logs the value so a failing run names its replay seed.
func Seed(t testing.TB, def int64) int64 {
	s := def
	if *seedFlag != 0 {
		s = *seedFlag
	}
	t.Logf("seed=%d (rerun with `go test -run '^%s$' -args -seed=%d`)", s, t.Name(), s)
	return s
}

// New returns a math/rand generator for the test, seeded through Seed.
//
//potlint:allow unusedexport test-helper package: the seeded generator the property tests draw from
func New(t testing.TB, def int64) *rand.Rand {
	return rand.New(rand.NewSource(Seed(t, def)))
}
