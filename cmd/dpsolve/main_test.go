package main

import (
	"strings"
	"testing"
)

func TestBuildInstanceFamilies(t *testing.T) {
	cases := []struct {
		problem string
		n       int
		wantN   int
	}{
		{"matrixchain", 8, 8},
		{"obst", 8, 9}, // m keys -> m+1 objects
		{"triangulation", 8, 8},
		{"zigzag", 8, 8},
		{"balanced", 8, 8},
		{"skewed", 8, 8},
		{"random", 8, 8},
	}
	for _, tc := range cases {
		in, err := buildInstance(tc.problem, tc.n, 1, "")
		if err != nil {
			t.Errorf("%s: %v", tc.problem, err)
			continue
		}
		if in.N != tc.wantN {
			t.Errorf("%s: N = %d, want %d", tc.problem, in.N, tc.wantN)
		}
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", tc.problem, err)
		}
	}
}

func TestBuildInstanceDims(t *testing.T) {
	in, err := buildInstance("matrixchain", 0, 0, "30, 35,15")
	if err != nil {
		t.Fatal(err)
	}
	if in.N != 2 {
		t.Fatalf("N = %d, want 2", in.N)
	}
	if got := in.F(0, 1, 2); got != 30*35*15 {
		t.Fatalf("f = %d", got)
	}
}

func TestBuildInstanceErrors(t *testing.T) {
	if _, err := buildInstance("nosuch", 5, 1, ""); err == nil || !strings.Contains(err.Error(), "unknown problem") {
		t.Fatalf("unknown problem: %v", err)
	}
	if _, err := buildInstance("matrixchain", 5, 1, "3,x,4"); err == nil {
		t.Fatal("bad dims accepted")
	}
}
