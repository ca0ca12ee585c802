package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strconv"
	"testing"

	"sublineardp/internal/cost"
	"sublineardp/internal/recurrence"
)

// The reference digests below hash one varint per Write call — the
// original, unbuffered byte stream the served digests are frozen to.

func refTableDigest(t *recurrence.Table) string {
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	h.Write(buf[:binary.PutVarint(buf[:], int64(t.N))])
	for i := 0; i <= t.N; i++ {
		for j := i + 1; j <= t.N; j++ {
			h.Write(buf[:binary.PutVarint(buf[:], int64(cost.Norm(t.At(i, j))))])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refVectorDigest(v *recurrence.Vector) string {
	h := sha256.New()
	h.Write([]byte("chain"))
	var buf [binary.MaxVarintLen64]byte
	h.Write(buf[:binary.PutVarint(buf[:], int64(v.N))])
	for j := 0; j <= v.N; j++ {
		h.Write(buf[:binary.PutVarint(buf[:], int64(cost.Norm(v.At(j))))])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refPathDigest(path []int) string {
	h := sha256.New()
	h.Write([]byte("path"))
	var buf [binary.MaxVarintLen64]byte
	h.Write(buf[:binary.PutVarint(buf[:], int64(len(path)))])
	for _, p := range path {
		h.Write(buf[:binary.PutVarint(buf[:], int64(p))])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// randomCost draws from every varint length class, including Inf, values
// past Inf (which normalise to Inf) and negatives.
func randomCost(rng *rand.Rand) cost.Cost {
	switch rng.Intn(6) {
	case 0:
		return cost.Inf
	case 1:
		return cost.Inf + cost.Cost(rng.Intn(1000))
	case 2:
		return -cost.Cost(rng.Int63n(1 << 40))
	case 3:
		return cost.Cost(rng.Intn(64))
	default:
		return cost.Cost(rng.Int63n(1 << uint(rng.Intn(60)+1)))
	}
}

// TestBufferedDigestsMatchPerEntryStream pins the buffered digests to
// the per-entry reference on random tables, vectors and paths whose
// encodings span zero, one and many flush chunks. The table sizes
// include those the packed-layout tests sweep (1, 2, 3, 17, 64, 65):
// TableDigest hashes the packed cell run in one pass, the reference
// streams it cell by cell through At.
func TestBufferedDigestsMatchPerEntryStream(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{0, 1, 2, 3, 7, 17, 64, 65, 90, 300} {
		for rep := 0; rep < 3; rep++ {
			tab := recurrence.NewTable(n)
			for i := 0; i <= n; i++ {
				for j := 0; j <= n; j++ {
					tab.Set(i, j, randomCost(rng))
				}
			}
			if got, want := TableDigest(tab), refTableDigest(tab); got != want {
				t.Fatalf("TableDigest n=%d rep=%d: %s, per-entry reference %s", n, rep, got, want)
			}
		}
	}
	for _, n := range []int{0, 1, 2, 500, 5000} {
		v := recurrence.NewVector(n)
		for j := 0; j <= n; j++ {
			v.Set(j, randomCost(rng))
		}
		if got, want := VectorDigest(v), refVectorDigest(v); got != want {
			t.Fatalf("VectorDigest n=%d: %s, per-entry reference %s", n, got, want)
		}
		path := make([]int, n)
		for i := range path {
			path[i] = int(randomCost(rng))
		}
		if got, want := PathDigest(path), refPathDigest(path); got != want {
			t.Fatalf("PathDigest len=%d: %s, per-entry reference %s", n, got, want)
		}
	}
}

func BenchmarkTableDigest(b *testing.B) {
	for _, n := range []int{48, 512, 2048} {
		tab := recurrence.NewTable(n)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				tab.Set(i, j, cost.Cost(rng.Int63n(1<<30)))
			}
		}
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for b.Loop() {
				TableDigest(tab)
			}
		})
	}
}
