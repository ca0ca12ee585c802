package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func keyOf(s string) Key { return NewHasher().String("k", s).Sum() }

func TestHasherLabeledFieldsDoNotConcatenate(t *testing.T) {
	a := NewHasher().String("x", "ab").String("y", "c").Sum()
	b := NewHasher().String("x", "a").String("y", "bc").Sum()
	if a == b {
		t.Fatal("distinct field splits hashed equal")
	}
	c1 := NewHasher().Int64("n", 12).Sum()
	c2 := NewHasher().Int64("n", 12).Sum()
	if c1 != c2 {
		t.Fatal("identical fields hashed unequal")
	}
}

func TestLRUBasicAndEviction(t *testing.T) {
	c := New[int](4, 2) // 2 entries per shard
	keys := []Key{keyOf("a"), keyOf("b"), keyOf("c"), keyOf("d"), keyOf("e"), keyOf("f")}
	for i, k := range keys {
		c.Add(k, i)
	}
	// Each shard keeps at most its 2 most recent keys.
	perShard := make([]int, 2)
	for _, k := range keys {
		perShard[k.shard(2)]++
	}
	if got, want := c.Len(), min(perShard[0], 2)+min(perShard[1], 2); got != want {
		t.Fatalf("%d resident, want %d (per-shard capacity 2, keys per shard %v)", got, want, perShard)
	}
	// Recency: touch the oldest resident key, add another to its shard,
	// and the touched key must survive.
	var resident []Key
	for i, k := range keys {
		if v, ok := c.Get(k); ok {
			if v != i {
				t.Fatalf("key %d holds %d", i, v)
			}
			resident = append(resident, k)
		}
	}
	if len(resident) != c.Len() {
		t.Fatalf("Get finds %d keys, Len reports %d", len(resident), c.Len())
	}
	victim := resident[0]
	c.Get(victim) // most recently used now
	shard := victim.shard(2)
	for i := 0; ; i++ {
		k := keyOf(string(rune('A' + i)))
		if k.shard(2) == shard {
			c.Add(k, 99)
			break
		}
	}
	if _, ok := c.Get(victim); !ok {
		t.Fatal("most recently used entry was evicted")
	}
}

func TestLRUUpdateOverwrites(t *testing.T) {
	c := New[int](8, 1)
	k := keyOf("x")
	c.Add(k, 1)
	c.Add(k, 2)
	if v, ok := c.Get(k); !ok || v != 2 {
		t.Fatalf("got %v %v, want 2 true", v, ok)
	}
	if got := c.Len(); got != 1 {
		t.Fatalf("%d resident after overwriting one key, want 1", got)
	}
}

func TestSingleFlightDedups(t *testing.T) {
	var g Group[int]
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 8

	var wg sync.WaitGroup
	joinedCount := atomic.Int64{}
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, joined, err := g.Do(context.Background(), keyOf("k"), func(ctx context.Context) (int, error) {
				calls.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("got %v %v", v, err)
			}
			if joined {
				joinedCount.Add(1)
			}
		}()
	}
	// Wait until every caller is either the leader or has joined.
	for g.Stats().Dedups+g.Stats().Executions < waiters {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := joinedCount.Load(); got != waiters-1 {
		t.Fatalf("%d joiners, want %d", got, waiters-1)
	}
}

func TestSingleFlightRefcountedCancellation(t *testing.T) {
	var g Group[int]
	started := make(chan struct{})
	observed := make(chan error, 1)

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()

	fn := func(ctx context.Context) (int, error) {
		close(started)
		<-ctx.Done()
		observed <- ctx.Err()
		return 0, ctx.Err()
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, err := g.Do(ctx1, keyOf("k"), fn)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller 1: %v", err)
		}
	}()
	<-started
	go func() {
		defer wg.Done()
		_, _, err := g.Do(ctx2, keyOf("k"), fn)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("caller 2: %v", err)
		}
	}()
	for g.Stats().Dedups < 1 {
		time.Sleep(time.Millisecond)
	}

	// One of two waiters leaves: the flight must keep running.
	cancel1()
	select {
	case err := <-observed:
		t.Fatalf("flight cancelled with a waiter remaining: %v", err)
	case <-time.After(30 * time.Millisecond):
	}

	// The last waiter leaves: the flight context must be cancelled.
	cancel2()
	select {
	case err := <-observed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("flight context error = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("flight context never cancelled after all waiters left")
	}
	wg.Wait()
}

func TestSingleFlightErrorPropagates(t *testing.T) {
	var g Group[int]
	boom := errors.New("boom")
	_, _, err := g.Do(context.Background(), keyOf("k"), func(ctx context.Context) (int, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failed flight must not be cached in the group: the next call
	// runs again.
	v, _, err := g.Do(context.Background(), keyOf("k"), func(ctx context.Context) (int, error) {
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("second call got %v %v", v, err)
	}
}
