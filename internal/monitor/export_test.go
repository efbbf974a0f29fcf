package monitor

import "sort"

// Slices lists the slice names present in the store, sorted.
func (s *Store) Slices() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := map[string]bool{}
	for k := range s.series {
		set[k.slice] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len reports the number of stored samples across all series.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.series {
		n += len(r.buf)
	}
	return n
}
