package cache

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressHitMissEvictChurn hammers one small sharded LRU plus a
// single-flight group from many goroutines with a keyspace several times
// the capacity, so every operation class — hit, miss, insert, evict,
// join — runs concurrently under the race detector. The invariants:
// residency never exceeds capacity, every path ran, and values never
// migrate between keys.
func TestStressHitMissEvictChurn(t *testing.T) {
	const (
		capacity   = 64
		keyspace   = 256
		goroutines = 16
		opsPer     = 2000
	)
	c := New[int64](capacity, 8)
	var g Group[int64]

	keys := make([]Key, keyspace)
	for i := range keys {
		keys[i] = NewHasher().Int64("i", int64(i)).Sum()
	}
	// value(i) = i*1000003: recoverable from the key index, so a hit
	// returning another key's value is detected immediately.
	val := func(i int) int64 { return int64(i) * 1000003 }

	var wg sync.WaitGroup
	var computes, hits atomic.Int64
	added := make([]atomic.Bool, keyspace)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*2654435761 + 1
			for op := 0; op < opsPer; op++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				i := int(rng % keyspace)
				if v, ok := c.Get(keys[i]); ok {
					if v != val(i) {
						t.Errorf("key %d returned value %d (want %d)", i, v, val(i))
						return
					}
					hits.Add(1)
					continue
				}
				v, _, err := g.Do(context.Background(), keys[i], func(ctx context.Context) (int64, error) {
					computes.Add(1)
					return val(i), nil
				})
				if err != nil || v != val(i) {
					t.Errorf("compute key %d: %d, %v", i, v, err)
					return
				}
				c.Add(keys[i], v)
				added[i].Store(true)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Len(); got > capacity {
		t.Fatalf("residency %d exceeds capacity %d", got, capacity)
	}
	// More distinct keys added than the capacity holds means the shards
	// evicted.
	distinct := 0
	for i := range added {
		if added[i].Load() {
			distinct++
		}
	}
	if hits.Load() == 0 || distinct <= capacity {
		t.Fatalf("stress run did not exercise all paths: %d hits, %d distinct keys added", hits.Load(), distinct)
	}
	fs := g.Stats()
	if fs.Executions != computes.Load() {
		t.Fatalf("group executions %d != observed computes %d", fs.Executions, computes.Load())
	}
	// Each Do call either executed or joined.
	if fs.Executions+fs.Dedups == 0 {
		t.Fatal("no single-flight traffic recorded")
	}
}

// TestStressNoDuplicateInFlightSolves drives waves of identical keys and
// asserts the single-flight guarantee exactly: while a flight is open,
// every concurrent caller of its key folds into it, so a wave of k
// callers costs exactly one execution.
func TestStressNoDuplicateInFlightSolves(t *testing.T) {
	var g Group[int]
	for wave := 0; wave < 50; wave++ {
		const callers = 8
		var calls atomic.Int64
		release := make(chan struct{})
		ready := make(chan struct{}, callers)
		key := NewHasher().Int64("wave", int64(wave)).Sum()

		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ready <- struct{}{}
				v, _, err := g.Do(context.Background(), key, func(ctx context.Context) (int, error) {
					calls.Add(1)
					<-release
					return wave, nil
				})
				if err != nil || v != wave {
					t.Errorf("wave %d: got %v %v", wave, v, err)
				}
			}()
		}
		for i := 0; i < callers; i++ {
			<-ready
		}
		// All callers launched; wait until each is accounted as leader or
		// joiner before releasing the flight.
		deadline := time.Now().Add(5 * time.Second)
		for {
			s := g.Stats()
			if s.Executions+s.Dedups >= int64((wave+1)*callers) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("wave %d: callers never folded: %+v", wave, s)
			}
			time.Sleep(100 * time.Microsecond)
		}
		close(release)
		wg.Wait()
		if got := calls.Load(); got != 1 {
			t.Fatalf("wave %d: %d executions for %d identical concurrent callers", wave, got, callers)
		}
	}
}

// TestStressAbandonedFlightsCancel churns flights whose callers all time
// out, checking every abandoned flight context is cancelled (no leaked
// forever-running computations) while completed flights still deliver.
func TestStressAbandonedFlightsCancel(t *testing.T) {
	var g Group[int]
	var cancelled atomic.Int64
	const flights = 40
	var wg sync.WaitGroup
	for i := 0; i < flights; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%5+1)*time.Millisecond)
			defer cancel()
			key := NewHasher().Int64("abandon", int64(i)).Sum()
			_, _, err := g.Do(ctx, key, func(fctx context.Context) (int, error) {
				<-fctx.Done() // simulate a long solve that honours ctx
				cancelled.Add(1)
				return 0, fctx.Err()
			})
			if err == nil {
				t.Errorf("flight %d: expected timeout error", i)
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for cancelled.Load() < flights {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d abandoned flights saw cancellation", cancelled.Load(), flights)
		}
		time.Sleep(time.Millisecond)
	}
}
