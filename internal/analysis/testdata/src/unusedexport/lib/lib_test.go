package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 4 {
		t.Fatal("OnlyTests")
	}
}
