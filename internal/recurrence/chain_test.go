package recurrence

import (
	"strings"
	"testing"

	"sublineardp/internal/algebra"
	"sublineardp/internal/cost"
)

// stepChain is a max-plus chain in which only the two nearest prefixes
// carry a transition: F(j-1,j) = step, F(j-2,j) = jump, and every other
// k gets the penalty -1, strictly below the c(j-1) + step >= 0 candidate.
func stepChain(n int, step, jump cost.Cost, window int) *Chain {
	return &Chain{
		N:    n,
		Name: "step",
		F: func(k, j int) cost.Cost {
			switch k {
			case j - 1:
				return step
			case j - 2:
				return jump
			}
			return -1
		},
		Window:  window,
		Algebra: algebra.NameMaxPlus,
	}
}

// nearest returns a Support over the last m prefixes of c's window.
func nearest(c *Chain, m int) func(j int, dst []int32) []int32 {
	return func(j int, dst []int32) []int32 {
		for k := max(c.Lo(j), j-m); k < j; k++ {
			dst = append(dst, int32(k))
		}
		return dst
	}
}

func TestValidateAcceptsExactSupport(t *testing.T) {
	for _, window := range []int{0, 1, 3} {
		c := stepChain(9, 1, 3, window)
		c.Support = nearest(c, 2)
		if err := c.Validate(); err != nil {
			t.Fatalf("window=%d: %v", window, err)
		}
	}
}

// A support that leaves out the winning k must not pass, whether the
// omission moves the value or only the smallest-k predecessor.
func TestValidateRejectsSupportMissingAWinner(t *testing.T) {
	c := stepChain(9, 1, 3, 0) // the jump from j-2 wins
	c.Support = nearest(c, 1)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "folds to") {
		t.Fatalf("support without the winning j-2 accepted: %v", err)
	}

	tie := stepChain(9, 0, 0, 0) // j-2 and j-1 tie; smallest k is j-2
	tie.Support = nearest(tie, 1)
	if err := tie.Validate(); err == nil || !strings.Contains(err.Error(), "folds to") {
		t.Fatalf("support that loses the smallest-k tie accepted: %v", err)
	}
}

func TestValidateRejectsMisshapenSupport(t *testing.T) {
	for name, sup := range map[string]func(j int, dst []int32) []int32{
		"descending": func(j int, dst []int32) []int32 {
			if j >= 2 {
				dst = append(dst, int32(j-1))
			}
			return append(dst, int32(max(j-2, 0)))
		},
		"not below j":      func(j int, dst []int32) []int32 { return append(dst, int32(j-1), int32(j)) },
		"below the window": func(j int, dst []int32) []int32 { return append(dst, int32(max(j-3, 0)), int32(j-1)) },
	} {
		c := stepChain(9, 1, 3, 2)
		c.Support = sup
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "want ascending") {
			t.Errorf("%s support accepted: %v", name, err)
		}
	}
}

func TestUsesSupportOnlyUnderDeclaredAlgebra(t *testing.T) {
	c := stepChain(5, 1, 3, 0)
	if c.UsesSupport(algebra.NameMaxPlus) {
		t.Fatal("chain without a Support claims one")
	}
	c.Support = nearest(c, 2)
	if !c.UsesSupport(algebra.NameMaxPlus) {
		t.Fatal("declared algebra does not use the support")
	}
	if c.UsesSupport(algebra.NameMinPlus) {
		t.Fatal("an override kept the support")
	}
	c.Algebra = ""
	if !c.UsesSupport(algebra.NameMinPlus) {
		t.Fatal(`"" does not resolve to min-plus for the support`)
	}
}

func TestNumCandidatesCountsSupport(t *testing.T) {
	c := stepChain(10, 1, 3, 0)
	if got, want := c.NumCandidates(), int64(10*11/2); got != want {
		t.Fatalf("dense candidates %d, want %d", got, want)
	}
	c.Support = nearest(c, 2)
	if got, want := c.NumCandidates(), int64(1+2*9); got != want {
		t.Fatalf("support candidates %d, want %d", got, want)
	}
}
