package store

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

func TestBasicOps(t *testing.T) {
	s := New[int](4)
	if _, ok := s.Get("a"); ok {
		t.Fatal("empty store returned a value")
	}
	if prev, replaced := s.Put("a", 1); replaced {
		t.Fatalf("first Put reported replaced with prev=%d", prev)
	}
	if prev, replaced := s.Put("a", 2); !replaced || prev != 1 {
		t.Fatalf("Put replace = (%d,%v), want (1,true)", prev, replaced)
	}
	if v, ok := s.Get("a"); !ok || v != 2 {
		t.Fatalf("Get = (%d,%v), want (2,true)", v, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if v, ok := s.Delete("a"); !ok || v != 2 {
		t.Fatalf("Delete = (%d,%v), want (2,true)", v, ok)
	}
	if _, ok := s.Delete("a"); ok {
		t.Fatal("double Delete reported success")
	}
	if s.Len() != 0 {
		t.Fatalf("Len after delete = %d, want 0", s.Len())
	}
}

func TestDefaultShards(t *testing.T) {
	s := New[string](0)
	if got := len(s.shards); got != DefaultShards {
		t.Fatalf("shard count = %d, want %d", got, DefaultShards)
	}
}

func TestRangeAndItems(t *testing.T) {
	s := New[int](8)
	want := map[string]int{}
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%03d", i)
		s.Put(k, i)
		want[k] = i
	}
	got := map[string]int{}
	s.Range(func(k string, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range saw %s=%d, want %d", k, got[k], v)
		}
	}
	items := s.Items()
	if len(items) != len(want) {
		t.Fatalf("Items has %d entries, want %d", len(items), len(want))
	}
	// Early-exit Range stops promptly.
	n := 0
	s.Range(func(string, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early-exit Range visited %d entries, want 1", n)
	}
}

func TestKeysSpreadAcrossShards(t *testing.T) {
	s := New[int](16)
	for i := 0; i < 1000; i++ {
		s.Put(fmt.Sprintf("obj-%d", i), i)
	}
	occupied := 0
	for i := range s.shards {
		if len(s.shards[i].m) > 0 {
			occupied++
		}
	}
	if occupied < len(s.shards)/2 {
		t.Fatalf("only %d of %d shards occupied: FNV pick not spreading", occupied, len(s.shards))
	}
}

// TestConcurrentMixedOps is the -race workout: writers, readers and
// iterators on overlapping keys.
func TestConcurrentMixedOps(t *testing.T) {
	s := New[int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k-%d", (w*200+i)%100)
				switch i % 4 {
				case 0, 1:
					s.Put(k, i)
				case 2:
					s.Get(k)
				case 3:
					s.Delete(k)
				}
				if i%50 == 0 {
					s.Range(func(string, int) bool { return true })
					s.Items()
					s.Len()
				}
			}
		}(w)
	}
	wg.Wait()
	// Sanity: the surviving keys are a subset of those ever written.
	var keys []string
	s.Range(func(k string, _ int) bool { keys = append(keys, k); return true })
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("Range reported %s but Get misses it", k)
		}
	}
}

// TestPlacementIsFNV1a pins shard placement: a key lives in the shard its
// 32-bit FNV-1a hash picks, with the values hash/fnv gives for these ids.
func TestPlacementIsFNV1a(t *testing.T) {
	pinned := []struct {
		key  string
		hash uint32
	}{
		{"", 0x811c9dc5},
		{"a", 0xe40c292c},
		{"obj-c0-0", 0x76b56843},
		{"spine-007", 0x3e18ff6c},
		{"photos-😀", 0x240bccb6},
		{"doc-49", 0xec109697},
		{"w-12345", 0x29bfb51c},
	}
	s := New[int](DefaultShards)
	for _, p := range pinned {
		if got := fnv1a(p.key); got != p.hash {
			t.Errorf("fnv1a(%q) = %#08x, want %#08x", p.key, got, p.hash)
		}
		if got, want := s.pick(p.key), &s.shards[p.hash%DefaultShards]; got != want {
			t.Errorf("%q is not placed in shard %d", p.key, p.hash%DefaultShards)
		}
	}
}

// TestProbeAllocs: a Get, a GetThen and an overwriting Put allocate nothing.
// The race detector instruments map and lock operations, so the count only
// holds without it.
func TestProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := New[int](DefaultShards)
	keys := []string{"obj-c0-0", "spine-007", "w-12345"}
	for i, k := range keys {
		s.Put(k, i)
	}
	seen := 0
	next := 0
	for name, op := range map[string]func(){
		"Get":     func() { s.Get(keys[next%len(keys)]) },
		"GetThen": func() { s.GetThen(keys[next%len(keys)], func(v int) { seen += v }) },
		"Put":     func() { s.Put(keys[next%len(keys)], next) },
	} {
		if got := testing.AllocsPerRun(100, func() { op(); next++ }); got != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, got)
		}
	}
}

// TestGetThenCallsOnlyOnAHit: fn sees the stored value, and a missing key
// calls nothing.
func TestGetThenCallsOnlyOnAHit(t *testing.T) {
	s := New[int](4)
	s.Put("a", 7)
	var got []int
	if v, ok := s.GetThen("a", func(v int) { got = append(got, v) }); !ok || v != 7 {
		t.Fatalf("GetThen(a) = (%d, %v), want (7, true)", v, ok)
	}
	if _, ok := s.GetThen("b", func(v int) { got = append(got, v) }); ok {
		t.Fatal("GetThen(b) found a value in a store without b")
	}
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("fn saw %v, want [7]", got)
	}
}
