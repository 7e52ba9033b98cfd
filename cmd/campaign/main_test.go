package main

import "testing"

func TestParseRange(t *testing.T) {
	for _, tc := range []struct {
		in          string
		part, parts int
		ok          bool
	}{
		{"", 0, 0, true},
		{"0/4", 0, 4, true},
		{"3/4", 3, 4, true},
		{"0/1", 0, 1, true},
		{"1/4/8", 0, 0, false},
		{"1/4x", 0, 0, false},
		{"x/4", 0, 0, false},
		{"1/", 0, 0, false},
		{"/4", 0, 0, false},
		{"1", 0, 0, false},
		{"1 /4", 0, 0, false},
		{"4/4", 0, 0, false},
		{"-1/4", 0, 0, false},
		{"0/0", 0, 0, false},
	} {
		part, parts, err := parseRange(tc.in)
		if (err == nil) != tc.ok || part != tc.part || parts != tc.parts {
			t.Errorf("parseRange(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, part, parts, err, tc.part, tc.parts, tc.ok)
		}
	}
}
