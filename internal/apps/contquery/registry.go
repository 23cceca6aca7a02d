package contquery

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is a thread-safe set of standing queries shared by every query
// task. Queries can be added and removed at runtime; tasks pick up changes
// on their next tuple or tick, keeping window state for queries whose
// definition is unchanged.
type Registry struct {
	mu      sync.RWMutex
	queries map[string]Query
	version uint64
}

// NewRegistry builds a registry from the initial queries.
func NewRegistry(qs ...Query) (*Registry, error) {
	r := &Registry{queries: make(map[string]Query, len(qs))}
	for _, q := range qs {
		if err := r.Add(q); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add registers or replaces a standing query.
func (r *Registry) Add(q Query) error {
	if err := q.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	r.queries[q.ID] = q
	r.version++
	r.mu.Unlock()
	return nil
}

// List returns the current queries sorted by ID.
func (r *Registry) List() []Query {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Query, 0, len(r.queries))
	for _, q := range r.queries {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of standing queries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.queries)
}

// Version returns a counter that changes on every mutation; tasks use it
// to detect registry updates cheaply.
func (r *Registry) Version() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.version
}

// String summarizes the registry.
func (r *Registry) String() string {
	return fmt.Sprintf("Registry(%d queries, v%d)", r.Len(), r.Version())
}
