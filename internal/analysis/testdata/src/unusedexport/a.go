// Fixture for the unusedexport analyzer. This package imports lib, so
// lib's exports it names are not reported; its own unnamed ones are.
package unusedexport

import (
	"fmt"

	"potgo/internal/analysis/testdata/src/unusedexport/lib"
)

// render names lib.Name but never its String method: fmt reaches String
// through fmt.Stringer, so String is not reported.
func render() string { return fmt.Sprint(lib.Name("x"), lib.Used()) }

// area reaches Square's Area only through the Shape interface.
func area() int { return lib.Shape(lib.Square{Side: 2}).Area() + len(render()) }

// Report is exported and nothing names it.
func Report() int { return area() } // want "exported func Report is referenced by no non-test file"
