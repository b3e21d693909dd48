package plan

import (
	"reflect"
	"testing"

	"weaver/internal/wire"
)

// fakeMarkers is an in-memory MarkerReader for planner unit tests.
type fakeMarkers map[string]struct{}

func (f fakeMarkers) set(key, value string, shard int) {
	f[MarkerKey(key, value, shard)] = struct{}{}
}

func (f fakeMarkers) HasValue(key, value string, shard int) bool {
	_, ok := f[MarkerKey(key, value, shard)]
	return ok
}

func eq(key, value string) wire.Where { return wire.Where{Key: key, Op: wire.OpEq, Value: value} }

func TestMarkerKeyDistinct(t *testing.T) {
	keys := map[string]bool{}
	for _, k := range []string{
		MarkerKey("kind", "block", 0),
		MarkerKey("kind", "block", 1),
		MarkerKey("kind", "tx", 0),
		MarkerKey("city", "block", 0),
	} {
		if keys[k] {
			t.Fatalf("duplicate marker key %q", k)
		}
		keys[k] = true
	}
}

func TestBuildPrunesToMarkedShards(t *testing.T) {
	m := fakeMarkers{}
	m.set("kind", "block", 1)
	m.set("kind", "block", 3)
	p := New(4, m)

	pl := p.Build(Query{Wheres: []wire.Where{eq("kind", "block")}})
	if pl.Broadcast {
		t.Fatalf("equality query fell back to broadcast: %q", pl.FallbackReason)
	}
	if want := []int{1, 3}; !reflect.DeepEqual(pl.Shards, want) {
		t.Fatalf("Shards = %v, want %v", pl.Shards, want)
	}
}

func TestBuildConjunctionIntersectsMarkers(t *testing.T) {
	m := fakeMarkers{}
	m.set("kind", "block", 0)
	m.set("kind", "block", 1)
	m.set("city", "nyc", 1)
	m.set("city", "nyc", 2)
	p := New(4, m)

	pl := p.Build(Query{Wheres: []wire.Where{eq("kind", "block"), eq("city", "nyc")}})
	if want := []int{1}; !reflect.DeepEqual(pl.Shards, want) {
		t.Fatalf("conjunction Shards = %v, want %v", pl.Shards, want)
	}
}

func TestBuildEmptyPlanForUnknownValue(t *testing.T) {
	p := New(4, fakeMarkers{})
	pl := p.Build(Query{Wheres: []wire.Where{eq("kind", "nowhere")}})
	if pl.Broadcast || len(pl.Shards) != 0 {
		t.Fatalf("unknown value should plan zero shards, got %+v", pl)
	}
}

func TestBuildBroadcastsWithoutEquality(t *testing.T) {
	m := fakeMarkers{}
	m.set("kind", "block", 2)
	p := New(3, m)

	for _, q := range []Query{
		{Wheres: wire.Between("kind", "a", "b")},
		{Wheres: []wire.Where{{Key: "kind", Op: wire.OpGe, Value: "a"}}},
	} {
		pl := p.Build(q)
		if !pl.Broadcast {
			t.Fatalf("query %+v should broadcast", q)
		}
		if want := []int{0, 1, 2}; !reflect.DeepEqual(pl.Shards, want) {
			t.Fatalf("broadcast Shards = %v, want %v", pl.Shards, want)
		}
	}
	// An inequality riding along with an equality still prunes.
	pl := p.Build(Query{Wheres: []wire.Where{
		eq("kind", "block"), {Key: "kind", Op: wire.OpGe, Value: "a"},
	}})
	if pl.Broadcast || !reflect.DeepEqual(pl.Shards, []int{2}) {
		t.Fatalf("mixed conjunction should prune on the equality, got %+v", pl)
	}
}

func TestMatchShardsSkipsContacted(t *testing.T) {
	m := fakeMarkers{}
	m.set("kind", "block", 0)
	m.set("kind", "block", 2)
	p := New(4, m)

	got := p.MatchShards([]wire.Where{eq("kind", "block")}, map[int]struct{}{0: {}})
	if want := []int{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("MatchShards skip = %v, want %v", got, want)
	}
}

func TestBroadcastRecordsReason(t *testing.T) {
	p := New(2, fakeMarkers{})
	pl := p.Broadcast("planning disabled")
	if !pl.Broadcast || pl.FallbackReason != "planning disabled" {
		t.Fatalf("Broadcast plan = %+v", pl)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(pl.Shards, want) {
		t.Fatalf("Broadcast shards = %v, want %v", pl.Shards, want)
	}
}
