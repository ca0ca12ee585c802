package problems

import (
	"fmt"
	"math"
	"math/rand"

	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// Point is a polygon vertex. Coordinates are integers so triangulation
// costs stay exact after scaling. The JSON names are the wire format's
// (internal/wire aliases this type).
type Point struct {
	X int64 `json:"x"`
	Y int64 `json:"y"`
}

// Triangulation returns the minimum-weight convex-polygon triangulation
// instance for the polygon with vertices v_0..v_n (len = n+1, listed in
// order). Node (i,j) is the sub-polygon v_i..v_j; splitting at k forms the
// triangle (v_i, v_k, v_j) whose weight is its perimeter, scaled by 1024
// and rounded to keep costs integral. Polygon edges (leaves) are free.
//
// Scaling note: all solvers receive identical integer weights, so the
// cross-validation between them is still exact; only the correspondence
// to true Euclidean perimeters is approximate, which is irrelevant to the
// algorithmic claims being reproduced.
func Triangulation(vs []Point) *recurrence.Instance {
	if len(vs) < 3 {
		panic(fmt.Sprintf("problems: triangulation needs >= 3 vertices, got %d", len(vs)))
	}
	n := len(vs) - 1
	dist := func(a, b Point) cost.Cost {
		dx := float64(a.X - b.X)
		dy := float64(a.Y - b.Y)
		return cost.Cost(math.Round(1024 * math.Hypot(dx, dy)))
	}
	// Snapshot the vertices: F and Canon must observe the same geometry
	// even if the caller mutates its slice after construction, or the
	// cache key would desynchronise from behaviour.
	cvs := append([]Point(nil), vs...)
	xs := make([]int64, len(cvs))
	ys := make([]int64, len(cvs))
	for t, v := range cvs {
		xs[t], ys[t] = v.X, v.Y
	}
	return &recurrence.Instance{
		N:     n,
		Name:  fmt.Sprintf("triangulation-n%d", n),
		Canon: func() []byte { return canon("triangulation", xs, ys) },
		Init:  func(i int) cost.Cost { return 0 },
		F: func(i, k, j int) cost.Cost {
			return cost.Add3(dist(cvs[i], cvs[k]), dist(cvs[k], cvs[j]), dist(cvs[i], cvs[j]))
		},
		FPanel: func(i, k, j0 int, dst []cost.Cost) {
			dik := dist(cvs[i], cvs[k])
			for t := range dst {
				j := j0 + t
				dst[t] = cost.Add3(dik, dist(cvs[k], cvs[j]), dist(cvs[i], cvs[j]))
			}
		},
	}
}

// WeightedTriangulation returns the vertex-weight-product variant used in
// many textbooks: the triangle (i,k,j) costs w_i*w_k*w_j. With weights
// equal to matrix dimensions this is isomorphic to matrix-chain ordering,
// which tests exploit as a cross-problem consistency check.
func WeightedTriangulation(weights []int64) *recurrence.Instance {
	if len(weights) < 3 {
		panic(fmt.Sprintf("problems: weighted triangulation needs >= 3 weights, got %d", len(weights)))
	}
	for _, w := range weights {
		if w <= 0 {
			panic("problems: vertex weights must be positive")
		}
	}
	n := len(weights) - 1
	ws := append([]int64(nil), weights...)
	return &recurrence.Instance{
		N:     n,
		Name:  fmt.Sprintf("wtriangulation-n%d", n),
		Canon: func() []byte { return canon("wtriangulation", ws) },
		Init:  func(i int) cost.Cost { return 0 },
		F: func(i, k, j int) cost.Cost {
			return cost.Cost(ws[i] * ws[k] * ws[j])
		},
		FPanel: func(i, k, j0 int, dst []cost.Cost) {
			wik := ws[i] * ws[k]
			row := ws[j0 : j0+len(dst)]
			for t := range dst {
				dst[t] = cost.Cost(wik * row[t])
			}
		},
	}
}

// RegularPolygon returns n+1 vertices of a regular polygon with the given
// integer radius, centred at the origin. With all sides symmetric, many
// triangulations tie; useful for exercising tie-breaking determinism.
func RegularPolygon(n int, radius int64) []Point {
	if n < 2 {
		panic("problems: RegularPolygon needs n >= 2")
	}
	vs := make([]Point, n+1)
	for t := 0; t <= n; t++ {
		ang := 2 * math.Pi * float64(t) / float64(n+1)
		vs[t] = Point{
			X: int64(math.Round(float64(radius) * math.Cos(ang))),
			Y: int64(math.Round(float64(radius) * math.Sin(ang))),
		}
	}
	return vs
}

// RandomConvexPolygon returns n+1 vertices of a random convex polygon:
// points on a circle of the given radius at sorted random angles.
func RandomConvexPolygon(n int, radius int64, seed int64) []Point {
	if n < 2 {
		panic("problems: RandomConvexPolygon needs n >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	angles := make([]float64, n+1)
	for i := range angles {
		angles[i] = rng.Float64() * 2 * math.Pi
	}
	// Insertion sort keeps the dependency footprint to the stdlib only.
	for i := 1; i < len(angles); i++ {
		for k := i; k > 0 && angles[k] < angles[k-1]; k-- {
			angles[k], angles[k-1] = angles[k-1], angles[k]
		}
	}
	vs := make([]Point, n+1)
	for t := range vs {
		vs[t] = Point{
			X: int64(math.Round(float64(radius) * math.Cos(angles[t]))),
			Y: int64(math.Round(float64(radius) * math.Sin(angles[t]))),
		}
	}
	return vs
}
