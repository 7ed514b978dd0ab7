package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// Same-cycle posts for different origins fire by origin tile, whatever
// order they were posted in; posts from different cycles keep posting
// order even when a later cycle's origin is lower.
func TestEngineCanonicalTieOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	rec := func(arg any) { order = append(order, arg.(string)) }
	e.AtCall(1, func(any) {
		e.AtCall(10, rec, "c1/t7", 7)
		e.AtCall(10, rec, "c1/t3", 3)
		e.AtCall(10, rec, "c1/t3b", 3)
		e.AtCall(10, rec, "c1/machine")
	}, nil, 9)
	e.AtCall(2, func(any) {
		e.AtCall(10, rec, "c2/t0", 0)
	}, nil, 9)
	e.Run()
	want := "[c1/t3 c1/t3b c1/t7 c1/machine c2/t0]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("pop order %s, want %s", got, want)
	}
}

// tieEvent is one event of a random tie program: it runs on tile `to` and
// was posted on behalf of tile `from`.
type tieEvent struct {
	to, from int
	tag      uint64
}

// tieRecord is what a tile observes of one event it runs.
type tieRecord struct {
	when Time
	from int
	tag  uint64
}

// runTieProgram runs a random message-passing program over `tiles` tiles,
// each owned by shard tile*k/tiles, on a plain Engine (k == 0) or a
// ShardGroup of k shards. Every tile folds the events it runs into an
// order-sensitive hash and derives its posts from that hash, so any
// difference in the order a tile sees its events changes everything after
// it. Remote posts use delays of exactly the lookahead or one more, which
// makes same-cycle arrivals from different tiles (and shards) the common
// case. It returns each tile's observed event sequence and the number of
// same-cycle, different-origin ties the tiles saw.
func runTieProgram(seed int64, tiles, k int) ([][]tieRecord, int) {
	const lookahead, budget = 3, 60
	lanes := make([][]tieRecord, tiles)
	hash := make([]uint64, tiles)
	left := make([]int, tiles)
	for i := range left {
		left[i] = budget
	}
	shards := k
	if shards == 0 {
		shards = 1
	}
	shardOf := func(tile int) int { return tile * shards / tiles }
	var serial *Engine
	var group *ShardGroup
	if k == 0 {
		serial = NewEngine()
	} else {
		group = NewShardGroup(k, lookahead)
	}
	engineOf := func(tile int) *Engine {
		if serial != nil {
			return serial
		}
		return group.Engine(shardOf(tile))
	}
	var fire Handler
	post := func(from, to int, when Time, tag uint64) {
		ev := &tieEvent{to: to, from: from, tag: tag}
		if serial != nil {
			serial.AtCall(when, fire, ev, from)
			return
		}
		group.Post(shardOf(from), shardOf(to), when, fire, ev, from)
	}
	fire = func(arg any) {
		ev := arg.(*tieEvent)
		now := engineOf(ev.to).Now()
		lanes[ev.to] = append(lanes[ev.to], tieRecord{now, ev.from, ev.tag})
		h := hash[ev.to]*0x9e3779b97f4a7c15 + ev.tag + uint64(ev.from)<<32 + 1
		hash[ev.to] = h
		for i := 0; i < 1+int(h>>60)%2 && left[ev.to] > 0; i++ {
			left[ev.to]--
			h = h*6364136223846793005 + 1442695040888963407
			to := int(h>>33) % tiles
			d := Time(h>>20) % 3 // local posts: 0..2 cycles, zero delay included
			if to != ev.to {
				d = lookahead + Time(h>>24)%2
			}
			post(ev.to, to, now+d, h>>40)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for tile := 0; tile < tiles; tile++ {
		for j := 0; j < 2; j++ {
			engineOf(tile).AtCall(Time(rng.Intn(3)), fire, &tieEvent{to: tile, from: tile, tag: rng.Uint64()}, tile)
		}
	}
	if serial != nil {
		serial.Run()
	} else if drained, _ := group.RunUntilCheck(1<<40, 1, nil); !drained {
		panic("tie program did not drain")
	}
	ties := 0
	for _, lane := range lanes {
		for i := 1; i < len(lane); i++ {
			if lane[i].when == lane[i-1].when && lane[i].from != lane[i-1].from {
				ties++
			}
		}
	}
	return lanes, ties
}

// The kernel differential test: random programs full of same-cycle,
// cross-shard ties must give every tile the identical (when, origin, tag)
// event sequence on the serial Engine and on ShardGroups of 2 and 4 shards.
func TestShardGroupMatchesSerialUnderTies(t *testing.T) {
	const tiles = 8
	ties := 0
	for seed := int64(1); seed <= 12; seed++ {
		want, n := runTieProgram(seed, tiles, 0)
		ties += n
		for _, k := range []int{2, 4} {
			got, _ := runTieProgram(seed, tiles, k)
			for tile := range want {
				if fmt.Sprint(got[tile]) != fmt.Sprint(want[tile]) {
					t.Fatalf("seed %d k=%d tile %d:\nsharded %v\nserial  %v", seed, k, tile, got[tile], want[tile])
				}
			}
		}
	}
	if ties < 1000 {
		t.Fatalf("only %d same-cycle cross-origin ties over all seeds; the programs do not exercise the key", ties)
	}
}

// tiePost is one scheduling call of a tie-free-property program.
type tiePost struct {
	when, posted Time
	origin       int
}

// runInsertionProgram runs a random program whose posts depend only on the
// event id, and returns the ids in firing order plus every post made. With
// insertionOrder the queue is a reference list ordered by (when, insertion)
// — the kernel's order before the canonical key — otherwise it is the
// Engine.
func runInsertionProgram(seed int64, insertionOrder bool) ([]int, []tiePost) {
	const maxEvents = 300
	type pending struct {
		when    Time
		seq, id int
		tile    int
	}
	var fired []int
	var posts []tiePost
	var queue []pending
	e := NewEngine()
	next := 0
	var now Time
	var fire func(id, tile int)
	post := func(when Time, origin, tile int) {
		id := next
		next++
		posts = append(posts, tiePost{when, now, origin})
		if insertionOrder {
			queue = append(queue, pending{when: when, seq: id, id: id, tile: tile})
			return
		}
		e.AtCall(when, func(any) { now = e.Now(); fire(id, tile) }, nil, origin)
	}
	fire = func(id, tile int) {
		fired = append(fired, id)
		rng := rand.New(rand.NewSource(seed<<20 + int64(id)))
		for c := rng.Intn(3); c > 0 && next < maxEvents; c-- {
			post(now+Time(rng.Intn(12)), tile, rng.Intn(4))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 4; i++ {
		post(Time(i*5), 0, rng.Intn(4))
	}
	if !insertionOrder {
		e.Run()
		return fired, posts
	}
	for len(queue) > 0 {
		m := 0
		for i, p := range queue {
			if p.when < queue[m].when || p.when == queue[m].when && p.seq < queue[m].seq {
				m = i
			}
		}
		p := queue[m]
		queue = append(queue[:m], queue[m+1:]...)
		now = p.when
		fire(p.id, p.tile)
	}
	return fired, posts
}

// The canonical key reproduces the old (when, insertion) order on every
// tie-free run: when no two origins post events for the same cycle in the
// same cycle, pop order is unchanged. Runs where different origins post the
// same `when` from different cycles are what make this a real check of the
// posted-before-origin choice, so the test requires many of them.
func TestTieFreeScheduleKeepsInsertionOrder(t *testing.T) {
	tested, crossCycle := 0, 0
	for seed := int64(0); seed < 400; seed++ {
		fired, posts := runInsertionProgram(seed, false)
		origins := map[[2]Time]int{}
		byWhen := map[Time]int{}
		tieFree, mixed := true, false
		for _, p := range posts {
			k := [2]Time{p.when, p.posted}
			if o, ok := origins[k]; ok && o != p.origin {
				tieFree = false
			}
			origins[k] = p.origin
			if o, ok := byWhen[p.when]; ok && o != p.origin {
				mixed = true
			}
			byWhen[p.when] = p.origin
		}
		if !tieFree {
			continue
		}
		tested++
		if mixed {
			crossCycle++
		}
		want, _ := runInsertionProgram(seed, true)
		if fmt.Sprint(fired) != fmt.Sprint(want) {
			t.Fatalf("seed %d: tie-free run reordered:\nkey       %v\ninsertion %v", seed, fired, want)
		}
	}
	if tested < 100 || crossCycle < 50 {
		t.Fatalf("only %d tie-free runs (%d with cross-cycle, cross-origin `when` collisions); the property is not exercised", tested, crossCycle)
	}
}
