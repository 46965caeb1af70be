package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/gen"
	"github.com/probdata/pfcim/internal/itemset"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
)

// The paper mines one fixed Mushroom and one fixed T20I10D30KP40 and draws
// only the existence probabilities at random. The benchmark does the same:
// the transactions come from these fixed generator seeds, and the workload
// seed decides the probabilities. Which itemsets a generated dataset holds,
// and so how much there is to mine, swings by a factor of four between
// generator seeds at paper scale.
const (
	mushroomShape = 2
	questShape    = 3
	probShape     = 4
)

// seededDB gives data existence probabilities from N(mean, variance), as
// gen.AssignGaussian does. The multiset of probabilities is drawn once,
// from probShape, and seed permutes it over the transactions: every
// transaction's probability still follows the Gaussian, but a draw no
// longer also decides how many high probabilities there are. That halves
// how far the mining work moves from one seed to the next.
func seededDB(data []itemset.Itemset, mean, variance float64, seed int64) (*uncertain.DB, error) {
	trans := gen.AssignGaussian(data, mean, variance, probShape).Transactions()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(trans), func(i, j int) { trans[i].Prob, trans[j].Prob = trans[j].Prob, trans[i].Prob })
	return uncertain.NewDB(trans)
}

// genMushroom is the Mushroom-like dataset at scale (1 = 8,124 rows) under
// the paper's Gaussian regime for it: mean .5, variance .5.
func genMushroom(scale float64, seed int64) (*uncertain.DB, error) {
	return seededDB(gen.MushroomLike(scale, mushroomShape), 0.5, 0.5, seed)
}

// genQuest is T20I10D30KP40 at scale (1 = 30,000 rows) under mean .8,
// variance .1.
func genQuest(scale float64, seed int64) (*uncertain.DB, error) {
	return seededDB(gen.Quest(gen.QuestT20I10D30KP40(scale, questShape)), 0.8, 0.1, seed)
}

// paperOptions are the experiments' options at a relative min_sup: pfct
// .8, ε = δ = .1, and the ApproxFCP sampler for every union (no
// inclusion–exclusion shortcut).
func paperOptions(db *uncertain.DB, relMinSup float64, seed int64) core.Options {
	return core.Options{
		MinSup:          core.AbsoluteMinSup(db.N(), relMinSup),
		PFCT:            0.8,
		Epsilon:         0.1,
		Delta:           0.1,
		Seed:            seed,
		MaxExactClauses: -1,
	}
}

// mineCall is one call a pass makes: core.Mine, or sweep.Mine when points
// is set. span names the layer the call enters.
type mineCall struct {
	name   string
	span   string
	db     *uncertain.DB
	opts   core.Options
	points []sweep.Point
}

// callOut is what one call returned: its wall time, the wire form of its
// itemsets (one per sweep point), and the work counts.
type callOut struct {
	dur     time.Duration
	items   [][]byte
	stats   core.Stats
	profile *obs.Profile
	result  *core.Result
	sweep   *sweep.Result
}

func itemsJSON(items []core.ResultItem) ([]byte, error) {
	w := make([]core.ResultItemJSON, len(items))
	for i, it := range items {
		w[i] = it.JSON()
	}
	return json.Marshal(w)
}

// do runs the call once. With tr enabled, core.Mine calls also run under
// the miner's own phase tracer.
func (c mineCall) do(tr *tracer, parent int) (callOut, error) {
	var out callOut
	opts := c.opts
	if tr.on && c.span == "core.Mine" {
		opts.Tracer = obs.NewWithCapacity(0)
	}
	id := tr.begin(c.span+":"+c.name, parent)
	start := time.Now()
	var err error
	if c.points != nil {
		out.sweep, err = sweep.Mine(context.Background(), c.db, c.points, opts)
	} else {
		out.result, err = core.Mine(c.db, opts)
	}
	out.dur = time.Since(start)
	tr.end(id)
	if err != nil {
		return out, fmt.Errorf("%s: %w", c.name, err)
	}
	if out.sweep != nil {
		for _, p := range out.sweep.Points {
			b, err := itemsJSON(p.Itemsets)
			if err != nil {
				return out, err
			}
			out.items = append(out.items, b)
			out.stats = addStats(out.stats, p.Stats)
		}
		return out, nil
	}
	b, err := itemsJSON(out.result.Itemsets)
	if err != nil {
		return out, err
	}
	out.items = [][]byte{b}
	out.stats = out.result.Stats
	out.profile = out.result.Profile
	return out, nil
}

// addStats returns a + b field by field; core.Stats exports only Delta,
// and a − (0 − b) = a + b.
func addStats(a, b core.Stats) core.Stats {
	var zero core.Stats
	return a.Delta(zero.Delta(b))
}

// mineWorkload is a closed loop of passes over calls: one pass at a time,
// each call issued when the previous one returns.
type mineWorkload struct {
	setup  func() ([]mineCall, error)
	reps   int // set-up repetitions; setup_s is their median
	passes int // passes measured at least, even past the time budget
}

func (r *run) minePaper() error {
	return r.runMine(mineWorkload{
		reps:   9,
		passes: 3,
		setup: func() ([]mineCall, error) {
			mush, err := genMushroom(1, r.seed*4+1)
			if err != nil {
				return nil, err
			}
			quest, err := genQuest(1, r.seed*4+2)
			if err != nil {
				return nil, err
			}
			mush.Index()
			quest.Index()
			return []mineCall{
				{name: "mushroom", span: "core.Mine", db: mush, opts: paperOptions(mush, 0.3, r.seed)},
				{name: "quest", span: "core.Mine", db: quest, opts: paperOptions(quest, 0.6, r.seed)},
			}, nil
		},
	})
}

// smallDraws is how many probability draws of each dataset one mine-small
// pass mines. At CI scale the draw alone moves the mining time by a third;
// a pass over several draws keeps the workload seed from dominating.
const smallDraws = 8

func (r *run) mineSmall() error {
	return r.runMine(mineWorkload{
		reps:   15,
		passes: 10,
		setup: func() ([]mineCall, error) {
			var calls []mineCall
			for d := int64(0); d < smallDraws; d++ {
				mush, err := genMushroom(0.1, r.seed*16+d*2+1)
				if err != nil {
					return nil, err
				}
				quest, err := genQuest(0.02, r.seed*16+d*2+2)
				if err != nil {
					return nil, err
				}
				mush.Index()
				quest.Index()
				sharded := paperOptions(mush, 0.2, r.seed)
				sharded.Shards = 4
				base := paperOptions(mush, 0.4, r.seed)
				var pts []sweep.Point
				for _, p := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
					pts = append(pts, sweep.Point{MinSup: base.MinSup, PFCT: p, Epsilon: base.Epsilon, Delta: base.Delta})
				}
				calls = append(calls,
					mineCall{name: "mushroom", span: "core.Mine", db: mush, opts: paperOptions(mush, 0.2, r.seed)},
					mineCall{name: "quest", span: "core.Mine", db: quest, opts: paperOptions(quest, 0.4, r.seed)},
					mineCall{name: "mushroom-shards4", span: "shard.Mine", db: mush, opts: sharded},
					mineCall{name: "fig7-sweep", span: "sweep.Mine", db: mush, opts: base, points: pts},
				)
			}
			return calls, nil
		},
	})
}

func (r *run) runMine(w mineWorkload) error {
	r.checkAnchor()

	var setups, builds []float64
	var calls []mineCall
	for i := 0; i < w.reps; i++ {
		// Every repetition starts from a collected heap, so one
		// repetition's garbage does not tax the next.
		runtime.GC()
		id := r.tr.begin("bench.setup", -1)
		start := time.Now()
		cs, err := w.setup()
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.tr.end(id)
		calls = cs
		if r.traced {
			var build time.Duration
			for _, db := range distinctDBs(calls) {
				d, err := r.buildDB(db, -1)
				if err != nil {
					return err
				}
				build += d
			}
			builds = append(builds, ms(build))
		}
	}
	r.set("setup_s", median(setups))
	r.notef("set-up repetitions: %d, min %.4f s, max %.4f s", len(setups), quantile(setups, 0), quantile(setups, 1))
	if r.traced {
		r.set("uncertain.build_ms", median(builds))
	}

	// Memory covers the measured passes only: return the set-up garbage
	// to the kernel and reset its high-water mark first. The mean over the
	// passes is the metric; a peak moves with where the collections fell.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	rss := sampleRSS("self")

	// In a traced run every other pass is traced, so the tracing overhead
	// is measured against untraced passes of the same run.
	off := newTracer(false)
	var first []callOut
	var plain, traced []float64
	perCall := make(map[string][]float64)
	phases := make(map[string][]float64)
	var shares []float64
	roots := make(map[int]bool)
	var measured time.Duration
	var good int64
	start := time.Now()
	for i := 0; i < w.passes || time.Since(start) < r.seconds; i++ {
		tr := off
		if r.traced && i%2 == 0 {
			tr = r.tr
		}
		root := tr.begin("bench.pass", -1)
		if root >= 0 {
			roots[root] = true
		}
		outs := make([]callOut, len(calls))
		var dur time.Duration
		for j, c := range calls {
			out, err := c.do(tr, root)
			if err != nil {
				return err
			}
			outs[j] = out
			dur += out.dur
		}
		tr.end(root)
		measured += dur
		if first == nil {
			first = outs
			if err := r.checkSweeps(calls, outs); err != nil {
				return err
			}
		}
		for j, out := range outs {
			wrong := !equalItems(out.items, first[j].items)
			if wrong {
				fmt.Printf("mismatch: pass %d %s differs from pass 1\n", i+1, calls[j].name)
			} else {
				good++
			}
			r.op(true, wrong)
		}
		if tr.on {
			traced = append(traced, dur.Seconds())
			var phaseSum, coreSum float64
			pass := make(map[string]float64)
			byName := make(map[string]float64)
			for j, out := range outs {
				byName[calls[j].name] += ms(out.dur)
				if out.profile == nil {
					continue
				}
				coreSum += ms(out.dur)
				for _, ph := range out.profile.Phases {
					pass[ph.Phase] += float64(ph.WallNS) / 1e6
					phaseSum += float64(ph.WallNS) / 1e6
				}
			}
			for name, v := range pass {
				phases[name] = append(phases[name], v)
			}
			for name, v := range byName {
				perCall[name] = append(perCall[name], v)
			}
			if coreSum > 0 {
				shares = append(shares, phaseSum/coreSum)
			}
		} else {
			plain = append(plain, dur.Seconds())
		}
	}

	r.set("rss_mb", rss.meanMB())
	r.set("pass_s", median(plain))
	r.set("pass_p90_s", quantile(plain, 0.9))
	r.set("served_rps", float64(good)/measured.Seconds())
	hwm, err := procStatusKB("self", "VmHWM")
	if err != nil {
		return err
	}
	r.notef("peak RSS over the passes: %.1f MB", hwm/1024)
	r.notef("passes: %d untraced, %d traced, %d calls each", len(plain), len(traced), len(calls))
	if !r.traced {
		return nil
	}

	r.set("obs.overhead_ratio", median(traced)/median(plain))
	r.set("core.mine_mushroom_ms", median(perCall["mushroom"]))
	r.set("core.mine_quest_ms", median(perCall["quest"]))
	for name, metric := range map[string]string{
		"candidates": "core.candidates_ms", "expand": "core.expand_ms",
		"bound-check": "core.bound_check_ms", "exact-union": "core.exact_union_ms",
		"sampling": "core.sampling_ms",
	} {
		r.set(metric, median(phases[name]))
	}
	r.set("core.phase_share", median(shares))
	var st core.Stats
	for _, out := range first {
		st = addStats(st, out.stats)
	}
	r.setCoreStats(st)
	if v := perCall["mushroom-shards4"]; len(v) > 0 {
		r.set("shard.mine_ms", median(v))
		r.set("shard.overhead_ratio", median(v)/median(perCall["mushroom"]))
	}
	var enums, points int
	for j, c := range calls {
		if c.points != nil {
			enums += first[j].sweep.Stats.FullEnumerations
			points += first[j].sweep.Stats.Points
		}
	}
	if points > 0 {
		r.set("sweep.mine_ms", median(perCall["fig7-sweep"]))
		r.set("sweep.enumerations_per_point", float64(enums)/float64(points))
	}
	self := r.tr.selfByLayer(roots)
	for _, l := range []string{"bench", "core", "shard", "sweep"} {
		r.set("self."+l+"_ms", ms(self[l])/float64(len(traced)))
	}

	lid := r.tr.begin("bench.layers", -1)
	var tails []tailInput
	for j, c := range calls {
		if c.span == "core.Mine" {
			tails = append(tails, tailInputs(c.db, first[j].result.Itemsets, c.opts.MinSup, 4)...)
		}
	}
	r.timeTails(tails, st.TailEvaluations, lid)
	r.timeAnd(calls[0].db, lid)
	r.tr.end(lid)
	return nil
}

// checkSweeps checks every sweep point against an independent core.Mine
// at that point's options. It runs outside the timed calls.
func (r *run) checkSweeps(calls []mineCall, outs []callOut) error {
	for j, c := range calls {
		for k, p := range c.points {
			res, err := core.Mine(c.db, p.Apply(c.opts))
			if err != nil {
				return err
			}
			want, err := itemsJSON(res.Itemsets)
			if err != nil {
				return err
			}
			wrong := !bytes.Equal(outs[j].items[k], want)
			if wrong {
				fmt.Printf("mismatch: %s point pfct=%g differs from core.Mine\n", c.name, p.PFCT)
			}
			r.op(true, wrong)
		}
	}
	return nil
}

// setCoreStats reports the miner's exact work counts.
func (r *run) setCoreStats(st core.Stats) {
	r.set("core.nodes", float64(st.NodesVisited))
	r.set("core.tail_evals", float64(st.TailEvaluations))
	r.set("core.memo_hits", float64(st.TailMemoHits))
	if n := st.TailEvaluations + st.TailMemoHits; n > 0 {
		r.set("core.memo_hit_ratio", float64(st.TailMemoHits)/float64(n))
	}
	r.set("core.freq_pruned", float64(st.FreqPruned))
	r.set("core.ch_pruned", float64(st.CHPruned))
	r.set("core.bound_accepted", float64(st.BoundAccepted))
	r.set("core.bound_rejected", float64(st.BoundRejected))
	r.set("core.clauses", float64(st.ClauseEvaluated))
	r.set("core.sampled", float64(st.Sampled))
	r.set("core.samples_drawn", float64(st.SamplesDrawn))
}

func distinctDBs(calls []mineCall) []*uncertain.DB {
	var out []*uncertain.DB
	seen := make(map[*uncertain.DB]bool)
	for _, c := range calls {
		if !seen[c.db] {
			seen[c.db] = true
			out = append(out, c.db)
		}
	}
	return out
}

func equalItems(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
