package dse

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
)

func est(cycles float64) model.Estimate { return model.Estimate{Cycles: cycles} }

func TestPredCacheLRUOrder(t *testing.T) {
	c := NewPredCache(3)
	c.Put("a", est(1))
	c.Put("b", est(2))
	c.Put("c", est(3))
	// Touch "a": it becomes most recent, so "b" is now the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("d", est(4))
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted unexpectedly", k)
		}
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	// MRU-first order after the gets above: d, c, a.
	if got, want := c.Keys(), []string{"d", "c", "a"}; !reflect.DeepEqual(got, want) {
		t.Errorf("keys = %v, want %v", got, want)
	}
}

func TestPredCacheEdgeCapacities(t *testing.T) {
	tests := []struct {
		name      string
		cap       int
		puts      []string
		wantLen   int
		wantHits  map[string]bool // key -> expect hit afterwards
		wantEvict uint64
	}{
		{
			name: "capacity 0 disables", cap: 0,
			puts: []string{"a", "b"}, wantLen: 0,
			wantHits:  map[string]bool{"a": false, "b": false},
			wantEvict: 0,
		},
		{
			name: "negative capacity disables", cap: -5,
			puts: []string{"a"}, wantLen: 0,
			wantHits: map[string]bool{"a": false},
		},
		{
			name: "capacity 1 keeps newest", cap: 1,
			puts: []string{"a", "b", "c"}, wantLen: 1,
			wantHits:  map[string]bool{"a": false, "b": false, "c": true},
			wantEvict: 2,
		},
		{
			name: "repeat put same key no eviction", cap: 1,
			puts: []string{"a", "a", "a"}, wantLen: 1,
			wantHits:  map[string]bool{"a": true},
			wantEvict: 0,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			c := NewPredCache(tc.cap)
			for i, k := range tc.puts {
				c.Put(k, est(float64(i+1)))
			}
			if got := c.Len(); got != tc.wantLen {
				t.Errorf("len = %d, want %d", got, tc.wantLen)
			}
			for k, wantHit := range tc.wantHits {
				if _, ok := c.Get(k); ok != wantHit {
					t.Errorf("Get(%s) hit = %v, want %v", k, ok, wantHit)
				}
			}
			if got := c.Stats().Evictions; got != tc.wantEvict {
				t.Errorf("evictions = %d, want %d", got, tc.wantEvict)
			}
		})
	}
}

func TestPredCachePutRefreshesValue(t *testing.T) {
	c := NewPredCache(2)
	c.Put("k", est(10))
	c.Put("k", est(20))
	got, ok := c.Get("k")
	if !ok || got.Cycles != 20 {
		t.Fatalf("got %v ok=%v, want cycles 20", got, ok)
	}
	if c.Len() != 1 {
		t.Errorf("len = %d after double put", c.Len())
	}
}

func TestPredCacheConcurrentCounting(t *testing.T) {
	const (
		workers = 8
		rounds  = 500
	)
	c := NewPredCache(64)
	for i := 0; i < 32; i++ {
		c.Put(fmt.Sprintf("warm%d", i), est(float64(i)))
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Get(fmt.Sprintf("warm%d", i%32))         // hit
				c.Get(fmt.Sprintf("cold%d-%d", w, i))      // miss
				c.Put(fmt.Sprintf("extra%d", i%8), est(1)) // churn
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits != workers*rounds {
		t.Errorf("hits = %d, want %d", s.Hits, workers*rounds)
	}
	if s.Misses != workers*rounds {
		t.Errorf("misses = %d, want %d", s.Misses, workers*rounds)
	}
	if got := s.HitRatio(); got != 0.5 {
		t.Errorf("hit ratio = %v, want 0.5", got)
	}
	if c.Len() > 64 {
		t.Errorf("len %d exceeds capacity", c.Len())
	}
}

// TestPredCacheIsolation: the cache must not alias its stored estimate
// with any caller's value — mutating either the value passed to Put or
// a value returned by Get must not change what later Gets observe.
func TestPredCacheIsolation(t *testing.T) {
	c := NewPredCache(4)
	in := est(100)
	c.Put("k", in)
	in.Cycles = -1 // caller keeps mutating its own estimate
	got1, ok := c.Get("k")
	if !ok || got1.Cycles != 100 {
		t.Fatalf("Get after mutating the Put argument = %+v, ok=%v; want cycles 100", got1, ok)
	}
	got1.Cycles = -2 // caller mutates its returned copy
	got1.NPE = 99
	got2, ok := c.Get("k")
	if !ok || got2.Cycles != 100 || got2.NPE != 0 {
		t.Fatalf("Get after mutating a previous Get result = %+v, ok=%v; want cycles 100", got2, ok)
	}
}

func TestCacheStatsHitRatioEmpty(t *testing.T) {
	if r := (CacheStats{}).HitRatio(); r != 0 {
		t.Errorf("empty hit ratio = %v", r)
	}
}
