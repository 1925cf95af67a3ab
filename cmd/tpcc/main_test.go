package main

import "testing"

func TestChoose(t *testing.T) {
	for _, tc := range []struct {
		v    string
		want int
		ok   bool
	}{
		{"all", 0, true},
		{"each", 1, true},
		{"EACH", 1, true},
		{"eahc", 0, false},
		{"", 0, false},
		{"all ", 0, false},
	} {
		got, err := choose("place", tc.v, "all", "each")
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("choose(%q) = %d, %v; want %d, ok=%t", tc.v, got, err, tc.want, tc.ok)
		}
	}
}
