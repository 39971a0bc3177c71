// Fixture for the lockfree analyzer. Loaded as package path
// internal/docstore and type-checked like the real tree.
package docstore

import "sync"

type Store struct {
	mu sync.Mutex
}

type Hit struct{}

// Read methods must not touch the store mutex.

func (s *Store) SearchText(q string, k int) []Hit {
	s.mu.Lock()         // want "Store.SearchText references Store.mu"
	defer s.mu.Unlock() // want "Store.SearchText references Store.mu"
	return nil
}

func (s *Store) Stats() int {
	s.mu.Lock()   // want "Store.Stats references Store.mu"
	s.mu.Unlock() // want "Store.Stats references Store.mu"
	return 0
}

func (st *Store) Get(id string) *Hit {
	defer st.mu.Unlock() // want "Store.Get references Store.mu"
	st.mu.Lock()         // want "Store.Get references Store.mu"
	return nil
}

// The conditional ask a shard server enters by is a read like the others:
// the assumption is checked against the snapshot, not under the writer lock.

func (s *Store) SearchTextAssuming(q string, k int) ([]Hit, bool) {
	s.mu.Lock()         // want "Store.SearchTextAssuming references Store.mu"
	defer s.mu.Unlock() // want "Store.SearchTextAssuming references Store.mu"
	return nil, true
}

// The lock may not hide in a helper either: the call graph chases the
// read path into it.

func (s *Store) SearchCount(q string) int {
	return s.lockedCount()
}

func (s *Store) lockedCount() int {
	s.mu.Lock()         // want "Store.lockedCount (reachable from read method Store.SearchCount) references Store.mu"
	defer s.mu.Unlock() // want "Store.lockedCount (reachable from read method Store.SearchCount) references Store.mu"
	return 0
}

// Writers may lock freely — and helpers only they reach may too.

func (s *Store) Put(d *Hit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return nil
}

// A read method locking something that is not the receiver's mutex is
// fine: the contract is about the store lock specifically — matched as
// the Store.mu field object, not anything named mu.

func (s *Store) SearchHybrid(q string, k int) []Hit {
	var local sync.Mutex
	local.Lock()
	defer local.Unlock()
	return nil
}

// Methods on other types are out of scope even with the same names.

type sidecar struct {
	mu sync.Mutex
}

func (c *sidecar) SearchText(q string) []Hit {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nil
}

// A reasoned directive can suppress a deliberate exception.

func (s *Store) SearchLegacy(q string) []Hit {
	s.mu.Lock() //lint:allow lockfree fixture: documented legacy path
	s.mu.Unlock()
	return nil
}
