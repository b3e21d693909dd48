package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"weaver"
)

// verifier checks a run's final state against the offline model: the
// generated graph plus what each client's ledger says it committed.
// Every check counts into failed_share exactly like a client operation.
type verifier struct {
	res     *runResult
	g       *socialGraph
	clients []*client
	extra   map[uint32][]uint32 // live created edges by source, all clients
	cityW   map[uint32]uint16   // last written city, all clients (owners are disjoint)
	sample  []uint32
}

func newVerifier(res *runResult, g *socialGraph, clients []*client, seed int64) *verifier {
	v := &verifier{res: res, g: g, clients: clients, extra: map[uint32][]uint32{}, cityW: map[uint32]uint16{}}
	for _, c := range clients {
		for _, e := range c.ledger {
			v.extra[e.from] = append(v.extra[e.from], e.to)
		}
		for vtx, val := range c.cityW {
			v.cityW[vtx] = val
		}
	}
	// Half the sample is vertices the run wrote (where a lost or
	// duplicated write would show), half is uniform.
	n := min(1000, len(g.ids)/4)
	written := make([]uint32, 0, len(v.extra)+len(v.cityW))
	for vtx := range v.extra {
		written = append(written, vtx)
	}
	for vtx := range v.cityW {
		if _, dup := v.extra[vtx]; !dup {
			written = append(written, vtx)
		}
	}
	slices.Sort(written)
	r := rand.New(rand.NewSource(seed ^ 0x766572)) // "ver"
	r.Shuffle(len(written), func(i, j int) { written[i], written[j] = written[j], written[i] })
	v.sample = append(v.sample, written[:min(n/2, len(written))]...)
	for len(v.sample) < n {
		v.sample = append(v.sample, uint32(r.Intn(len(g.ids))))
	}
	return v
}

func (v *verifier) wantCity(vtx uint32) string {
	if val, ok := v.cityW[vtx]; ok {
		return cityName(val)
	}
	return cityName(v.g.city[vtx])
}

func (v *verifier) wantEdges(vtx uint32) []uint32 {
	return sortedCopy(append(slices.Clone(v.g.adj[vtx]), v.extra[vtx]...))
}

// each runs check(i) for i in [0,n) on one goroutine per benchmark client
// and books the outcomes. Reads go through rc's pinned snapshot.
func (v *verifier) each(c *weaver.Cluster, ts weaver.Timestamp, n int, check func(rc *weaver.ReadClient, i int) error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < numClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := c.Client().At(ts)
			for i := w; i < n; i += numClients {
				err := check(rc, i)
				mu.Lock()
				v.book(err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func (v *verifier) book(err error) {
	v.res.checks++
	if err != nil {
		v.res.checkFail++
		if len(v.res.errs) < 8 {
			v.res.errs = append(v.res.errs, "verify: "+err.Error())
		}
	}
}

// afterQuiesce reads the final state through the ordering pipeline (node
// programs and index lookups) once every commit has been applied, at a
// snapshot pinned after the Quiesce: it orders after every acknowledged
// write, and pinned reads do not queue behind the NOP frontier, so the
// check costs a fraction of a second instead of several.
func (v *verifier) afterQuiesce(c *weaver.Cluster, sh *shared) {
	snap, err := c.SnapshotTS()
	if err != nil {
		v.book(fmt.Errorf("pin the final snapshot: %w", err))
		return
	}
	defer snap.Close()
	if v.res.spec.writeShare() > 0 {
		v.each(c, snap.TS(), len(v.sample), func(rc *weaver.ReadClient, i int) error {
			vtx := v.sample[i]
			id := v.g.ids[vtx]
			tos, err := rc.GetEdges(id)
			if err != nil {
				return err
			}
			if got, err := indices(tos); err != nil || !slices.Equal(got, v.wantEdges(vtx)) {
				return fmt.Errorf("final get_edges %s = %v (%v), want %v", id, got, err, v.wantEdges(vtx))
			}
			nd, ok, err := rc.GetNode(id)
			if err != nil {
				return err
			}
			if !ok || nd.Props["city"] != v.wantCity(vtx) {
				return fmt.Errorf("final get_node %s = %s, want city %s", id, renderNode(nd, ok), v.wantCity(vtx))
			}
			return nil
		})
	}
	if !v.res.spec.pinned {
		return
	}
	// The index must agree with the model for every city value.
	want := make([][]uint32, cityValues)
	for vtx := range v.g.ids {
		val := v.g.city[vtx]
		if w, ok := v.cityW[uint32(vtx)]; ok {
			val = w
		}
		want[val] = append(want[val], uint32(vtx))
	}
	v.each(c, snap.TS(), cityValues, func(rc *weaver.ReadClient, i int) error {
		ids, err := rc.Lookup("city", cityName(uint16(i)))
		if err != nil {
			return err
		}
		if got, err := indices(ids); err != nil || !slices.Equal(got, want[i]) {
			return fmt.Errorf("final lookup city=%s: %d vertices (%v), want %d", cityName(uint16(i)), len(got), err, len(want[i]))
		}
		return nil
	})
	// Every vertex a client read at the still-pinned snapshot reads the
	// same now, after the rest of the run's writes and GC rounds.
	p := sh.pins.acquire()
	defer p.mu.RUnlock()
	for _, bc := range v.clients {
		if bc.seenPin != p {
			continue
		}
		rc := bc.cl.At(p.snap.TS())
		for _, vtx := range bc.seenList {
			nd, ok, err := rc.GetNode(v.g.ids[vtx])
			if err == nil && renderNode(nd, ok) != bc.seen[vtx] {
				err = fmt.Errorf("pinned get_node %s changed under one snapshot: %s then %s", v.g.ids[vtx], bc.seen[vtx], renderNode(nd, ok))
			}
			v.book(err)
		}
	}
}

// afterReopen reads the sample straight from the recovered backing store:
// every acknowledged write must have survived Close and reopen.
func (v *verifier) afterReopen(c *weaver.Cluster) {
	cl := c.Client()
	for _, vtx := range v.sample {
		id := v.g.ids[vtx]
		vd, ok, err := cl.GetVertex(id)
		if err == nil && !ok {
			err = fmt.Errorf("reopened get_vertex %s: absent", id)
		}
		if err == nil {
			tos := make([]weaver.VertexID, len(vd.Edges))
			for i, e := range vd.Edges {
				tos[i] = e.To
			}
			got, ierr := indices(tos)
			if ierr != nil || !slices.Equal(got, v.wantEdges(vtx)) || vd.Props["city"] != v.wantCity(vtx) {
				err = fmt.Errorf("reopened get_vertex %s = %v city %s (%v), want %v city %s",
					id, got, vd.Props["city"], ierr, v.wantEdges(vtx), v.wantCity(vtx))
			}
		}
		v.book(err)
	}
}
