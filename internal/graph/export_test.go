package graph

import (
	"fmt"
	"sort"

	"weaver/internal/core"
)

// FullSweep is the whole-store collection the retire list replaced: every
// chain in the store is visited. It is the reference CollectBeforeFunc must
// match (TestCollectBeforeMatchesFullSweep).
func FullSweep(s *Store, watermark core.Timestamp, dropped func(VertexID, *Property)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for vid, ch := range s.vertices {
		kept := ch.incarnations[:0]
		for _, v := range ch.incarnations {
			if !v.Deleted.Zero() && v.Deleted.PointwiseLT(watermark) {
				removed += 1 + len(v.Out)
				for i := range v.Props {
					dropped(vid, &v.Props[i])
				}
				continue
			}
			v.Props, removed = gcProps(v.Props, watermark, removed, vid, dropped)
			for eid, e := range v.Out {
				if !e.Deleted.Zero() && e.Deleted.PointwiseLT(watermark) {
					delete(v.Out, eid)
					removed++
					continue
				}
				e.Props, removed = gcProps(e.Props, watermark, removed, vid, func(VertexID, *Property) {})
			}
			kept = append(kept, v)
		}
		ch.incarnations = kept
		if len(ch.incarnations) == 0 {
			delete(s.vertices, vid)
		}
	}
	return removed
}

// Resident lists every version resident in s, one sorted line each: the
// state two stores must share to have collected the same garbage.
func Resident(s *Store) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	life := func(c, d core.Timestamp) string { return fmt.Sprintf("[%v %v)", c, d) }
	for vid, ch := range s.vertices {
		for i, v := range ch.incarnations {
			at := fmt.Sprintf("%s#%d", vid, i)
			out = append(out, at+" vertex "+life(v.Created, v.Deleted))
			for _, p := range v.Props {
				out = append(out, fmt.Sprintf("%s prop %s=%s %s", at, p.Key, p.Value, life(p.Created, p.Deleted)))
			}
			for eid, e := range v.Out {
				out = append(out, fmt.Sprintf("%s edge %s→%s %s", at, eid, e.To, life(e.Created, e.Deleted)))
				for _, p := range e.Props {
					out = append(out, fmt.Sprintf("%s edge %s prop %s=%s %s", at, eid, p.Key, p.Value, life(p.Created, p.Deleted)))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}
