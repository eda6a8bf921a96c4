// Package store provides the repository engine's storage substrate: a
// string-keyed, N-way sharded concurrent map. The repository serializes its
// writers itself, so sharding does not make writes parallel; what it buys is
// that a scan never holds the whole map. Range and Items lock one shard at a
// time, so a writer waits for at most one shard of a long scan — the
// untrained exact search, which walks every stored encoding, or Train's
// snapshot of the store — instead of all of it.
//
// The package is deliberately generic and knows nothing about MIE: it is the
// storage layer under internal/core's modality engines, mirroring how the
// authors' precursor CBIR system separates the storage substrate from the
// per-modality retrieval logic.
package store

import "sync"

// DefaultShards is the shard count used when none is given: enough ways to
// make same-shard writer collisions rare at realistic core counts, small
// enough that per-shard overhead is negligible.
const DefaultShards = 32

type shard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// Sharded is the store the repository engine programs against. Keys are
// object identifiers (the deterministic ID(d) the scheme leaks); values are
// whatever record the engine keeps per object. FNV-1a of the key picks the
// shard, each shard holds its own map under its own RWMutex.
type Sharded[V any] struct {
	shards []shard[V]
}

// New creates a sharded store with n shards; n <= 0 takes DefaultShards.
func New[V any](n int) *Sharded[V] {
	if n <= 0 {
		n = DefaultShards
	}
	s := &Sharded[V]{shards: make([]shard[V], n)}
	for i := range s.shards {
		s.shards[i].m = make(map[string]V)
	}
	return s
}

// FNV-1a's 32-bit parameters (hash/fnv's New32a, computed in place so a
// probe allocates nothing).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnv1a is the 32-bit FNV-1a hash of key.
func fnv1a(key string) uint32 {
	h := uint32(fnvOffset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= fnvPrime32
	}
	return h
}

// pick hashes key to its shard with FNV-1a.
func (s *Sharded[V]) pick(key string) *shard[V] {
	return &s.shards[fnv1a(key)%uint32(len(s.shards))]
}

// Get returns the value stored under key.
func (s *Sharded[V]) Get(key string) (V, bool) {
	return s.GetThen(key, nil)
}

// GetThen is Get that also calls fn (when not nil) with the value found,
// while the shard's read lock is still held: a Put or Delete of key lands
// wholly before the read and fn or wholly after both. fn must not call back
// into the store.
func (s *Sharded[V]) GetThen(key string, fn func(V)) (V, bool) {
	sh := s.pick(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	v, ok := sh.m[key]
	if ok && fn != nil {
		fn(v)
	}
	return v, ok
}

// Put stores v under key and returns the previous value, if any.
func (s *Sharded[V]) Put(key string, v V) (prev V, replaced bool) {
	sh := s.pick(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	prev, replaced = sh.m[key]
	sh.m[key] = v
	return prev, replaced
}

// Delete removes key and returns the value it held, if any.
func (s *Sharded[V]) Delete(key string) (V, bool) {
	sh := s.pick(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	v, ok := sh.m[key]
	if ok {
		delete(sh.m, key)
	}
	return v, ok
}

// Len returns the number of stored entries.
func (s *Sharded[V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. Iteration is
// per-shard: entries added or removed concurrently may or may not be
// observed, but each surviving entry is visited at most once.
func (s *Sharded[V]) Range(fn func(key string, v V) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			if !fn(k, v) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// Items returns a copied view of the store. The copy is taken shard by
// shard, so it is NOT a point-in-time cut under concurrent writes — callers
// needing consistency must track which keys are written while they work and
// read those again afterwards (which is exactly what the repository's
// off-lock Train does).
func (s *Sharded[V]) Items() map[string]V {
	out := make(map[string]V, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, v := range sh.m {
			out[k] = v
		}
		sh.mu.RUnlock()
	}
	return out
}
