package main

import (
	"time"

	"github.com/probdata/pfcim/internal/bitset"
	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/poibin"
	"github.com/probdata/pfcim/internal/uncertain"
)

// tailInput is one Poisson-binomial tail the miner evaluated: the existence
// probabilities of a result itemset's supporting transactions, at k.
type tailInput struct {
	probs []float64
	k     int
}

// tailInputs collects the tails of up to limit result itemsets of db.
func tailInputs(db *uncertain.DB, items []core.ResultItem, k, limit int) []tailInput {
	ix := db.Index()
	var out []tailInput
	for _, it := range items {
		if len(out) == limit {
			break
		}
		out = append(out, tailInput{probs: ix.ProbsOf(ix.TidsetOf(it.Items)), k: k})
	}
	return out
}

// timeTails times (*poibin.Scratch).Tail on each input, repeating short
// ones until each measurement covers at least a millisecond. It sets
// poibin.tail_us (median per call), poibin.tail_n (median vector length)
// and poibin.tail_busy_ms (the pass's tail evaluations at that cost).
func (r *run) timeTails(in []tailInput, tailEvals int, parent int) {
	if len(in) == 0 {
		return
	}
	id := r.tr.begin("poibin.Tail", parent)
	var s poibin.Scratch
	var us, n []float64
	for _, t := range in {
		reps := 0
		start := time.Now()
		for time.Since(start) < time.Millisecond || reps == 0 {
			s.Tail(t.probs, t.k)
			reps++
		}
		us = append(us, float64(time.Since(start).Microseconds())/float64(reps))
		n = append(n, float64(len(t.probs)))
	}
	r.tr.end(id)
	r.set("poibin.tail_us", median(us))
	r.set("poibin.tail_n", median(n))
	r.set("poibin.tail_busy_ms", float64(tailEvals)*median(us)/1000)
}

// timeAnd times bitset.AndCount over every pair of db's first 16 items'
// tidsets and sets bitset.and_us, the mean per call.
func (r *run) timeAnd(db *uncertain.DB, parent int) {
	ix := db.Index()
	var sets []*bitset.Bitset
	for _, it := range ix.Items {
		if len(sets) == 16 {
			break
		}
		sets = append(sets, ix.TidsetOf(itemset.Itemset{it}))
	}
	id := r.tr.begin("bitset.AndCount", parent)
	calls, sink := 0, 0
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		for i := range sets {
			for j := i + 1; j < len(sets); j++ {
				sink += bitset.AndCount(sets[i], sets[j])
				calls++
			}
		}
	}
	elapsed := time.Since(start)
	r.tr.end(id)
	if calls > 0 && sink >= 0 {
		r.set("bitset.and_us", float64(elapsed.Nanoseconds())/1000/float64(calls))
	}
}

// buildDB rebuilds db from its transactions, index included, and returns
// how long that took.
func (r *run) buildDB(db *uncertain.DB, parent int) (time.Duration, error) {
	id := r.tr.begin("uncertain.NewDB", parent)
	defer r.tr.end(id)
	start := time.Now()
	fresh, err := uncertain.NewDB(db.Transactions())
	if err != nil {
		return 0, err
	}
	fresh.Index()
	return time.Since(start), nil
}
