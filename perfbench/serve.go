package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/probdata/pfcim/internal/core"
	"github.com/probdata/pfcim/internal/obs"
	"github.com/probdata/pfcim/internal/service"
	"github.com/probdata/pfcim/internal/store"
	"github.com/probdata/pfcim/internal/sweep"
	"github.com/probdata/pfcim/internal/uncertain"
)

// One serve-mixed cycle: the operations the generator sends, in a seeded
// order. The proportions are cmd/loadgen's mix (30 % fresh submits, 20 %
// replays, 15 % watched, 10 % appends, 10 % sweeps, 10 % /metrics, 5 %
// traces) over 20 operations. Every job submit polls GET /v1/jobs/{id}
// until the job is terminal; those polls are the mix's status reads.
var cycleMix = []struct {
	class string
	n     int
}{
	{"miss", 6},    // POST /v1/jobs with options never sent before
	{"replay", 4},  // POST /v1/jobs with options mined during set-up
	{"watched", 3}, // POST /v1/jobs against lineage@latest
	{"append", 2},  // POST /v1/datasets/{lineage}/append, one transaction
	{"sweep", 2},   // POST /v1/sweeps with a fresh sampler seed
	{"metrics", 2}, // GET /metrics
	{"trace", 1},   // GET /v1/jobs/{id}/trace of a finished job
}

const (
	// offeredRate is the open loop's fixed rate, in operations per second:
	// about a sixth of the mix's closed-loop capacity, which the capacity
	// phase measured at a median of 140 op/s on a 2-vCPU host (METRICS.md).
	// At a third of it, in a slow stretch of the shared host, operations
	// queued behind one another and the waits grew with the load.
	offeredRate = 25
	// The capacity phase: procs closed-loop workers run the same mix back
	// to back for capacityWindow. Its schedule holds capacityCycles cycles,
	// far more than the window can use.
	capacityWindow = 8 * time.Second
	capacityCycles = 250
	setupReps      = 15
	replayPool     = 8
	pinnedDraws    = 16 // probability draws of the dataset misses mine
	pollEvery      = 2 * time.Millisecond
	opTimeout      = 10 * time.Second
	tenant         = "perfbench"
	// The quota sits far above any submit rate the closed-loop capacity
	// phase reaches, so admission runs on every submit but never sheds.
	quotaRate = "20000"
)

// isJob marks the classes whose latency runs until a mined result is in
// hand; replays are cache hits and time separately.
func isJob(class string) bool { return class == "miss" || class == "watched" || class == "sweep" }

// sop is one scheduled operation.
type sop struct {
	class string
	cycle int
	due   time.Duration // after the start of the measured window
	seq   int           // per-class sequence number
	pick  int           // replay pool entry or trace target
	// capacity marks an operation of the closed-loop capacity phase; due is
	// then unused.
	capacity bool
}

// record is what one operation saw.
type record struct {
	sop
	late    time.Duration // how late the generator sent it
	latency time.Duration // due → answer (or result) in hand
	ok      bool
	wrong   bool
	cached  bool
	traced  bool
	info    service.JobInfo
	raw     []byte // final job body
	version service.DatasetInfo
}

// daemon is one pfcimd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{}
}

// startDaemon starts pfcimd, with its durable store in storeDir unless
// storeDir is empty.
func startDaemon(bin, storeDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-quota", quotaRate, "-quota-burst", quotaRate}
	if storeDir != "" {
		args = append(args, "-store-dir", storeDir)
	}
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pfcimd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		sent := false
		for sc.Scan() {
			if sent {
				continue
			}
			var line struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "pfcimd listening" {
				addr <- line.Addr
				sent = true
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.addr = a
		return d, nil
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, errors.New("pfcimd did not report its listen address")
	}
}

// stop sends SIGTERM, waits for the process to exit (killing it after ten
// seconds), and waits for its stderr to drain.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	<-d.drained
}

// pinnedSet is one immutable dataset that misses, replays and sweeps mine.
type pinnedSet struct {
	db   *uncertain.DB
	text []byte
	id   string
}

// serve is the state of one serve-mixed run.
type serve struct {
	r    *run
	hc   *http.Client
	base string

	pinned      []*pinnedSet
	lineageText []byte
	lineageID   string
	lineageBase *uncertain.DB
	missOpts    core.OptionsJSON // Seed is set per operation
	watchOpts   core.OptionsJSON
	pool        []core.OptionsJSON // pool[i] mines pinned[i%pinnedDraws]
	poolIDs     []string
	poolRaw     [][]byte // first answer of each pool entry
	appendLines []string

	polls atomic.Int64 // status polls of submitted jobs

	mu      sync.Mutex
	records []*record
}

// call issues one request. Status codes other than 2xx are errors; so are
// 429 and 503, which are never retried.
func (s *serve) call(tr *tracer, parent int, name, method, path, ctype string, body []byte) ([]byte, error) {
	id := tr.begin("service."+name, parent)
	defer tr.end(id)
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	req.Header.Set(service.TenantHeader, tenant)
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(blob)))
	}
	return blob, nil
}

// jobState is the part of a job body the generator reads while it sends
// traffic. The whole body, with its result, is decoded after the traffic
// has stopped (decodeRecords), so that the generator takes as little CPU
// from the daemon as it can.
type jobState struct {
	ID     string            `json:"id"`
	Status service.JobStatus `json:"status"`
	Cached bool              `json:"cached"`
	Error  string            `json:"error"`
}

// submit posts a job or sweep and polls it until it is terminal. It
// returns the final body and the job's state; Cached is that of the
// submit's answer.
func (s *serve) submit(tr *tracer, parent int, path string, req any, deadline time.Time) ([]byte, jobState, error) {
	var st jobState
	body, err := json.Marshal(req)
	if err != nil {
		return nil, st, err
	}
	blob, err := s.call(tr, parent, "submit", http.MethodPost, path, "application/json", body)
	if err != nil {
		return nil, st, err
	}
	if err := json.Unmarshal(blob, &st); err != nil {
		return nil, st, err
	}
	cached := st.Cached
	for !st.Status.Terminal() {
		if time.Now().After(deadline) {
			return nil, st, fmt.Errorf("job %s not finished after %s", st.ID, opTimeout)
		}
		time.Sleep(pollEvery)
		s.polls.Add(1)
		if blob, err = s.call(tr, parent, "poll", http.MethodGet, "/v1/jobs/"+st.ID, "", nil); err != nil {
			return nil, st, err
		}
		if err := json.Unmarshal(blob, &st); err != nil {
			return nil, st, err
		}
	}
	st.Cached = cached
	if st.Status != service.StatusDone {
		return blob, st, fmt.Errorf("job %s %s: %s", st.ID, st.Status, st.Error)
	}
	return blob, st, nil
}

func (s *serve) missSeed(seq int) int64 { return 1_000_000 + int64(seq) }

// do runs one operation and returns its record.
func (s *serve) do(o sop, due time.Time, tr *tracer) *record {
	rec := &record{sop: o, traced: tr.on}
	root := tr.begin("bench.op:"+o.class, -1)
	deadline := due.Add(opTimeout)
	var err error
	switch o.class {
	case "miss", "replay", "watched":
		opts, ds := s.missOpts, s.pinned[o.seq%pinnedDraws].id
		switch o.class {
		case "miss":
			opts.Seed = s.missSeed(o.seq)
		case "replay":
			opts, ds = s.pool[o.pick], s.pinned[o.pick%pinnedDraws].id
		case "watched":
			opts, ds = s.watchOpts, s.lineageID+"@latest"
		}
		var st jobState
		rec.raw, st, err = s.submit(tr, root, "/v1/jobs",
			map[string]any{"dataset": ds, "options": opts}, deadline)
		rec.cached = st.Cached
		if err == nil && o.class == "miss" && rec.cached {
			// A miss that hits the cache measures the wrong path.
			fmt.Printf("mismatch: miss seed %d was served from the cache\n", opts.Seed)
			rec.wrong = true
		}
	case "sweep":
		opts := s.missOpts
		opts.Seed = -s.missSeed(o.seq)
		var st jobState
		rec.raw, st, err = s.submit(tr, root, "/v1/sweeps", map[string]any{
			"dataset": s.pinned[o.seq%pinnedDraws].id,
			"options": opts,
			"points":  []sweep.PointJSON{{PFCT: 0.6}, {PFCT: 0.7}, {PFCT: 0.8}},
		}, deadline)
		rec.cached = st.Cached
	case "append":
		var blob []byte
		blob, err = s.call(tr, root, "append", http.MethodPost, "/v1/datasets/"+s.lineageID+"/append",
			"text/plain", []byte(s.appendLines[o.seq]))
		if err == nil {
			err = json.Unmarshal(blob, &rec.version)
		}
	case "trace":
		var blob []byte
		blob, err = s.call(tr, root, "trace", http.MethodGet, "/v1/jobs/"+s.poolIDs[o.pick]+"/trace", "", nil)
		if err == nil {
			var p obs.Profile
			err = json.Unmarshal(blob, &p)
			if err == nil && len(p.Phases) == 0 {
				fmt.Printf("mismatch: trace of job %s has no phases\n", s.poolIDs[o.pick])
				rec.wrong = true
			}
		}
	case "metrics":
		var blob []byte
		blob, err = s.call(tr, root, "metrics", http.MethodGet, "/metrics", "", nil)
		if err == nil {
			var m map[string]int64
			err = json.Unmarshal(blob, &m)
		}
	}
	rec.latency = time.Since(due)
	tr.end(root)
	rec.ok = err == nil
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s op failed: %v\n", o.class, err)
	}
	return rec
}

// resultRaw extracts the raw "result" member of a job body.
func resultRaw(body []byte) []byte {
	var v struct {
		Result json.RawMessage `json:"result"`
	}
	if json.Unmarshal(body, &v) != nil {
		return nil
	}
	return v.Result
}

// schedule lays out the run's script: the open loop's whole cycles, one
// operation every 1/offeredRate, then the capacity phase's cycles. An
// untraced run lays out the capacity phase too, without running it, so
// that a seed gives traced and untraced runs the same inputs. Each cycle
// is in a seeded order; sequence numbers run on across both parts, so
// every miss and sweep has options never sent before.
func (s *serve) schedule(rng *rand.Rand) []sop {
	var cycle []string
	for _, m := range cycleMix {
		for i := 0; i < m.n; i++ {
			cycle = append(cycle, m.class)
		}
	}
	step := time.Second / offeredRate
	open := int(s.r.seconds.Seconds() * offeredRate / float64(len(cycle)))
	seq := make(map[string]int)
	var out []sop
	for c := 0; c < open+capacityCycles; c++ {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		for _, class := range cycle {
			o := sop{class: class, cycle: c, seq: seq[class], pick: rng.Intn(replayPool), capacity: c >= open}
			if !o.capacity {
				o.due = time.Duration(len(out)) * step
			}
			out = append(out, o)
			seq[class]++
		}
	}
	return out
}

// makeAppends draws the run's single-transaction appends: a base row's
// items with a new probability. Every line differs from every other, so no
// append is the idempotent retry of the one before.
func makeAppends(base *uncertain.DB, n int, rng *rand.Rand) []string {
	seen := make(map[string]bool)
	var out []string
	for len(out) < n {
		t := base.Transaction(rng.Intn(base.N()))
		var b strings.Builder
		for i, it := range t.Items {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(int(it)))
		}
		fmt.Fprintf(&b, " : %g\n", float64(55+rng.Intn(45))/100)
		if line := b.String(); !seen[line] {
			seen[line] = true
			out = append(out, line)
		}
	}
	return out
}

func dbText(db *uncertain.DB) ([]byte, error) {
	var buf bytes.Buffer
	err := uncertain.Write(&buf, db)
	return buf.Bytes(), err
}

// register uploads a dataset and returns its id.
func (s *serve) register(text []byte) (string, error) {
	off := newTracer(false)
	blob, err := s.call(off, -1, "register", http.MethodPost, "/v1/datasets", "text/plain", text)
	if err != nil {
		return "", err
	}
	var di service.DatasetInfo
	if err := json.Unmarshal(blob, &di); err != nil {
		return "", err
	}
	return di.ID, nil
}

// setup starts a daemon, on a fresh store if storeDir is set, waits for
// /healthz, registers the datasets and mines the replay pool.
func (s *serve) setup(storeDir string) (*daemon, error) {
	if storeDir != "" {
		if err := os.RemoveAll(storeDir); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(filepath.Join(s.r.binDir, "pfcimd"), storeDir)
	if err != nil {
		return nil, err
	}
	s.base = "http://" + d.addr
	off := newTracer(false)
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		if _, err := s.call(off, -1, "healthz", http.MethodGet, "/healthz", "", nil); err == nil {
			break
		}
		if time.Since(start) > 10*time.Second {
			d.stop()
			return nil, errors.New("pfcimd /healthz did not answer")
		}
	}
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, err
	}
	for _, p := range s.pinned {
		if p.id, err = s.register(p.text); err != nil {
			return fail(err)
		}
	}
	if s.lineageID, err = s.register(s.lineageText); err != nil {
		return fail(err)
	}
	s.poolIDs, s.poolRaw = nil, nil
	for i, opts := range s.pool {
		raw, st, err := s.submit(off, -1, "/v1/jobs",
			map[string]any{"dataset": s.pinned[i%pinnedDraws].id, "options": opts}, time.Now().Add(opTimeout))
		if err != nil {
			return fail(err)
		}
		s.poolIDs = append(s.poolIDs, st.ID)
		s.poolRaw = append(s.poolRaw, resultRaw(raw))
	}
	return d, nil
}

func (s *serve) metricsJSON() (map[string]int64, error) {
	blob, err := s.call(newTracer(false), -1, "metrics", http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	m := make(map[string]int64)
	return m, json.Unmarshal(blob, &m)
}

func (r *run) serveMixed() error {
	r.checkAnchor()
	rng := rand.New(rand.NewSource(r.seed))
	procs := runtime.NumCPU()
	s := &serve{
		r: r,
		hc: &http.Client{Timeout: opTimeout, Transport: &http.Transport{
			MaxConnsPerHost:     procs,
			MaxIdleConnsPerHost: procs,
		}},
	}
	defer s.hc.CloseIdleConnections()

	// Inputs: sixteen probability draws of a 406-row Mushroom-like dataset
	// that misses, replays and sweeps mine in a few milliseconds (spreading
	// them over draws keeps one draw's result sizes from deciding the
	// run), and an 812-row lineage that grows by one transaction per append.
	for d := int64(0); d < pinnedDraws; d++ {
		db, err := genMushroom(0.05, r.seed*32+d+1)
		if err != nil {
			return err
		}
		text, err := dbText(db)
		if err != nil {
			return err
		}
		s.pinned = append(s.pinned, &pinnedSet{db: db, text: text})
	}
	var err error
	if s.lineageBase, err = genMushroom(0.1, r.seed*32); err != nil {
		return err
	}
	if s.lineageText, err = dbText(s.lineageBase); err != nil {
		return err
	}
	s.missOpts = core.OptionsJSON{MinSup: core.AbsoluteMinSup(s.pinned[0].db.N(), 0.2), PFCT: 0.8}
	s.watchOpts = core.OptionsJSON{MinSup: core.AbsoluteMinSup(s.lineageBase.N(), 0.3), PFCT: 0.8, Seed: r.seed}
	for i := 0; i < replayPool; i++ {
		o := s.missOpts
		o.Seed = int64(i + 1)
		s.pool = append(s.pool, o)
	}
	sched := s.schedule(rng)
	appends := 0
	for _, o := range sched {
		if o.class == "append" {
			appends++
		}
	}
	s.appendLines = makeAppends(s.lineageBase, appends, rng)

	// The daemon keeps its durable store on disk in traced runs only. The
	// fsync latency of the shared disk moved fourfold within the hour, and
	// the open window's waits and the set-up moved with it: in ten runs
	// with the store, pass_s spread by 0.61 and setup_s by 0.64, while the
	// CPU-bound workloads run right after them spread by 0.13 at most. The
	// end-to-end metrics therefore measure the daemon without its store,
	// and the traced run measures what the store adds (METRICS.md).
	var storeDir string
	if r.traced {
		storeDir = filepath.Join(r.workDir, "serve-store")
	}
	var setups []float64
	var d *daemon
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
			s.hc.CloseIdleConnections()
		}
		id := r.tr.begin("bench.setup", -1)
		start := time.Now()
		if d, err = s.setup(storeDir); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		r.tr.end(id)
	}
	r.set("setup_s", median(setups))
	r.notef("set-up repetitions: %d, min %.4f s, max %.4f s", len(setups), quantile(setups, 0), quantile(setups, 1))
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	pid := strconv.Itoa(d.cmd.Process.Pid)
	before, err := s.metricsJSON()
	if err != nil {
		return err
	}
	rssBefore, err := procStatusKB(pid, "VmRSS")
	if err != nil {
		return err
	}

	// The daemon's heap grows with every finished job and its peak lands
	// wherever the last collection fell, so memory is its mean RSS over
	// the window.
	rss := sampleRSS(pid)

	// The open loop: each operation starts at its due time on its own
	// goroutine, however many earlier ones are still waiting. In a traced
	// run every other cycle is traced.
	off := newTracer(false)
	var wg sync.WaitGroup
	var open, closed []sop
	for _, o := range sched {
		if o.capacity {
			closed = append(closed, o)
		} else {
			open = append(open, o)
		}
	}
	start := time.Now()
	for _, o := range open {
		due := start.Add(o.due)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		tr := off
		if r.traced && o.cycle%2 == 0 {
			tr = r.tr
		}
		wg.Add(1)
		go func(o sop) {
			defer wg.Done()
			rec := s.do(o, due, tr)
			rec.late = late
			s.mu.Lock()
			s.records = append(s.records, rec)
			s.mu.Unlock()
		}(o)
	}
	wg.Wait()
	openElapsed := time.Since(start)
	r.notef("open window: %.2f s for %d operations at %d op/s", openElapsed.Seconds(), len(open), offeredRate)
	rssMean := rss.meanMB()

	after, err := s.metricsJSON()
	if err != nil {
		return err
	}
	rssAfter, err := procStatusKB(pid, "VmRSS")
	if err != nil {
		return err
	}
	hwm, err := procStatusKB(pid, "VmHWM")
	if err != nil {
		return err
	}
	// The capacity phase measures the daemon's capacity for the mix, the
	// basis of offeredRate. It runs in traced runs only: its rate moved
	// with the latency of the shared disk's fsync by far more than the
	// end-to-end bounds allow.
	var capElapsed time.Duration
	if r.traced {
		var capUnused int
		capElapsed, capUnused = s.capacity(closed, procs)
		if capUnused == 0 {
			return errors.New("the capacity phase ran out of scheduled operations")
		}
	}
	prom, err := s.scrapeReuse()
	if err != nil {
		return err
	}
	d.stop()
	d = nil
	var disk int64
	if storeDir != "" {
		if disk, err = dirBytes(storeDir); err != nil {
			return err
		}
	}

	s.decodeRecords()
	if err := s.verify(); err != nil {
		return err
	}
	r.set("rss_mb", rssMean)
	r.notef("daemon peak RSS: %.1f MB", hwm/1024)
	s.report(openElapsed, capElapsed, disk)
	delta := func(k string) float64 { return float64(after[k] - before[k]) }
	if jobs := delta("jobs_done"); jobs > 0 {
		r.set("service.rss_kb_per_job", (rssAfter-rssBefore)/jobs)
	}
	r.set("service.shed", delta("jobs_shed_quota")+delta("jobs_shed_queue_full"))
	r.set("stream.reuse_ratio", prom)
	if !r.traced {
		return nil
	}
	r.setCoreStats(core.Stats{
		NodesVisited:    int(delta("nodes_visited")),
		TailEvaluations: int(delta("tail_evaluations")),
		TailMemoHits:    int(delta("tail_memo_hits")),
		FreqPruned:      int(delta("freq_pruned")),
		CHPruned:        int(delta("ch_pruned")),
		BoundAccepted:   int(delta("bound_accepted")),
		BoundRejected:   int(delta("bound_rejected")),
		ClauseEvaluated: int(delta("clause_evaluated")),
		Sampled:         int(delta("sampled")),
		SamplesDrawn:    int(delta("samples_drawn")),
	})
	return s.layers()
}

// capacity runs the closed-loop capacity phase: workers goroutines, one
// per allowed connection, each issuing the next operation of ops as soon as
// its last one is answered, until capacityWindow has passed. It returns
// the time until the last operation was answered and how many operations
// of ops were left unused.
func (s *serve) capacity(ops []sop, workers int) (time.Duration, int) {
	off := newTracer(false)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < capacityWindow {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				rec := s.do(ops[i], time.Now(), off)
				s.mu.Lock()
				s.records = append(s.records, rec)
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return time.Since(start), max(len(ops)-int(next.Load()), 0)
}

// scrapeReuse reads the watched streams' reuse-ratio histogram from the
// Prometheus exposition and returns its mean.
func (s *serve) scrapeReuse() (float64, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var sum, count float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, _, _ := strings.Cut(line, "{")
		val, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			continue
		}
		switch name {
		case "pfcimd_watch_reuse_ratio_sum":
			sum += val
		case "pfcimd_watch_reuse_ratio_count":
			count += val
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if count == 0 {
		return 0, nil
	}
	return sum / count, nil
}

// decodeRecords decodes the final body of every job and sweep, now that
// the traffic has stopped, and checks each replay byte for byte against
// the first answer of its pool entry. A body that does not decode fails
// its operation.
func (s *serve) decodeRecords() {
	for _, rec := range s.records {
		if rec.raw == nil || !rec.ok {
			continue
		}
		if err := json.Unmarshal(rec.raw, &rec.info); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s op failed: %v\n", rec.class, err)
			rec.ok = false
			continue
		}
		if rec.class == "replay" && !bytes.Equal(resultRaw(rec.raw), s.poolRaw[rec.pick]) {
			fmt.Printf("mismatch: replay %s is not byte-identical to the first answer\n", rec.info.ID)
			rec.wrong = true
		}
	}
}

// errNoAppend marks a lineage version whose append the run has no answer
// for.
var errNoAppend = errors.New("no recorded append")

// verify checks every job result against an untimed in-process core.Mine
// of the same dataset version and options, and counts every operation.
func (s *serve) verify() error {
	dbs := make(map[string]*uncertain.DB)
	for _, p := range s.pinned {
		db, err := uncertain.Read(bytes.NewReader(p.text))
		if err != nil {
			return err
		}
		dbs[p.id] = db
	}
	// Version v of the lineage is its base plus the appends that the daemon
	// numbered 2..v.
	lineByVersion := make(map[int]string)
	versionOf := map[string]int{s.lineageID: 1}
	lostAppends := 0
	for _, rec := range s.records {
		if rec.class == "append" {
			if !rec.ok {
				lostAppends++
				continue
			}
			lineByVersion[rec.version.Version] = s.appendLines[rec.seq]
			versionOf[rec.version.ID] = rec.version.Version
		}
	}
	dbFor := func(id string) (*uncertain.DB, error) {
		if db, ok := dbs[id]; ok {
			return db, nil
		}
		v, ok := versionOf[id]
		if !ok {
			return nil, fmt.Errorf("dataset %s is no version the run recorded: %w", id, errNoAppend)
		}
		text := append([]byte(nil), s.lineageText...)
		for i := 2; i <= v; i++ {
			line, ok := lineByVersion[i]
			if !ok {
				return nil, fmt.Errorf("version %d of the lineage: %w", i, errNoAppend)
			}
			text = append(text, line...)
		}
		db, err := uncertain.Read(bytes.NewReader(text))
		if err != nil {
			return nil, err
		}
		dbs[id] = db
		return db, nil
	}
	// Every reference a record needs, mined once. The mining runs on every
	// CPU: it is most of a run's unmeasured time.
	type refKey struct {
		id string
		oj core.OptionsJSON
	}
	type refOut struct {
		db   *uncertain.DB
		want []byte
		err  error
	}
	refs := make(map[refKey]*refOut)
	need := func(id string, oj core.OptionsJSON) {
		k := refKey{id, oj}
		if refs[k] == nil {
			ro := &refOut{}
			ro.db, ro.err = dbFor(id)
			refs[k] = ro
		}
	}
	for _, rec := range s.records {
		if !rec.ok || rec.wrong {
			continue
		}
		switch {
		case rec.class == "sweep" && rec.info.Sweep != nil:
			for _, p := range rec.info.Sweep.Points {
				need(rec.info.Dataset, p.Options)
			}
		case (isJob(rec.class) || rec.class == "replay") && rec.info.Result != nil:
			need(rec.info.Dataset, rec.info.Options)
		}
	}
	todo := make(chan refKey)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range todo {
				ro := refs[k]
				opts, err := k.oj.Options()
				if err != nil {
					ro.err = err
					continue
				}
				res, err := core.Mine(ro.db, opts)
				if err != nil {
					ro.err = err
					continue
				}
				ro.want, ro.err = itemsJSON(res.Itemsets)
			}
		}()
	}
	for k, ro := range refs {
		if ro.err == nil {
			todo <- k
		}
	}
	close(todo)
	wg.Wait()
	reference := func(id string, oj core.OptionsJSON) ([]byte, error) {
		ro := refs[refKey{id, oj}]
		return ro.want, ro.err
	}
	wire := func(items []core.ResultItemJSON) []byte {
		b, _ := json.Marshal(items)
		return b
	}
	for _, rec := range s.records {
		if rec.ok && !rec.wrong {
			switch {
			case rec.class == "sweep" && rec.info.Sweep != nil:
				for _, p := range rec.info.Sweep.Points {
					want, err := reference(rec.info.Dataset, p.Options)
					if err != nil {
						return err
					}
					if !bytes.Equal(wire(p.Itemsets), want) {
						fmt.Printf("mismatch: sweep %s point pfct=%g differs from core.Mine\n", rec.info.ID, p.Point.PFCT)
						rec.wrong = true
					}
				}
			case isJob(rec.class) || rec.class == "replay":
				if rec.info.Result == nil {
					rec.wrong = true
					break
				}
				want, err := reference(rec.info.Dataset, rec.info.Options)
				if errors.Is(err, errNoAppend) && lostAppends > 0 {
					// An append whose answer was lost may still have been
					// applied, so this version cannot be rebuilt. The job
					// fails with the append; its result is not checked.
					fmt.Fprintf(os.Stderr, "perfbench: %s job %s unchecked: %v after %d lost appends\n",
						rec.class, rec.info.ID, err, lostAppends)
					rec.ok = false
					break
				}
				if err != nil {
					fmt.Printf("mismatch: %s job %s: %v\n", rec.class, rec.info.ID, err)
					rec.wrong = true
					break
				}
				if !bytes.Equal(wire(rec.info.Result.Itemsets), want) {
					fmt.Printf("mismatch: %s job %s differs from core.Mine\n", rec.class, rec.info.ID)
					rec.wrong = true
				}
			}
		}
		s.r.op(rec.ok, rec.wrong)
	}
	return nil
}

// report sets the end-to-end metrics and the per-class serve latencies.
// Every metric but service.capacity_rps describes the open loop.
func (s *serve) report(openElapsed, capElapsed time.Duration, disk int64) {
	r := s.r
	waits := make(map[string][]float64) // untraced cycles, seconds
	tracedCycles := make(map[int]bool)
	class := make(map[string][]float64)
	traced := map[bool][]float64{}
	var late, queue, wall, tails []float64
	hits := make(map[string][2]int)
	var served, capServed, openOps int
	userBytes := int64(len(s.lineageText))
	for _, p := range s.pinned {
		userBytes += int64(len(p.text))
	}
	var payloads [][]byte
	for _, rec := range s.records {
		if rec.class == "append" {
			userBytes += int64(len(s.appendLines[rec.seq]))
		}
		if !rec.capacity {
			openOps++
			late = append(late, ms(rec.late))
			if rec.traced {
				tracedCycles[rec.cycle] = true
			}
		}
		if !rec.ok || rec.wrong {
			continue
		}
		if isJob(rec.class) || rec.class == "replay" {
			h := hits[rec.class]
			h[1]++
			if rec.cached {
				h[0]++
			}
			hits[rec.class] = h
		}
		if rec.class == "watched" && !rec.cached && rec.info.Result != nil {
			tails = append(tails, float64(rec.info.Result.Stats.TailEvaluations))
		}
		if rec.capacity {
			capServed++
			continue
		}
		served++
		if !rec.traced {
			waits[rec.class] = append(waits[rec.class], rec.latency.Seconds())
		}
		l := ms(rec.latency)
		switch {
		case isJob(rec.class):
			class["job"] = append(class["job"], l)
			traced[rec.traced] = append(traced[rec.traced], l)
		case rec.class == "replay":
			class["hit"] = append(class["hit"], l)
		case rec.class == "append":
			class["append"] = append(class["append"], l)
		}
		if isJob(rec.class) || rec.class == "replay" {
			if !rec.cached {
				queue = append(queue, float64(rec.info.QueueWaitMillis))
				wall = append(wall, float64(rec.info.WallMillis))
			}
			payloads = append(payloads, rec.raw)
		}
	}
	// A pass is one cycle of the script. pass_s is the cycle with every
	// operation waiting its class's median. In a 30 s window per-class
	// medians rest on 37 to 222 waits each, where quantiles of per-cycle
	// sums would rest on 37 sums, each moved by whichever stall it
	// happened to overlap.
	var pass float64
	for _, m := range cycleMix {
		pass += float64(m.n) * median(waits[m.class])
	}
	r.set("pass_s", pass)
	r.set("pass_p90_s", passQuantile(waits, 0.9, r.seed))
	r.set("served_rps", float64(served)/openElapsed.Seconds())
	if capElapsed > 0 {
		r.set("service.capacity_rps", float64(capServed)/capElapsed.Seconds())
		r.notef("capacity phase: %d correct answers in %.2f s over %d connections", capServed, capElapsed.Seconds(), runtime.NumCPU())
	}
	for name, xs := range class {
		r.set("service."+name+"_p50_ms", median(xs))
		r.set("service."+name+"_p99_ms", quantile(xs, 0.99))
		r.notef("%s latency samples: %d", name, len(xs))
	}
	r.set("service.queue_wait_p50_ms", median(queue))
	r.set("service.queue_wait_p99_ms", quantile(queue, 0.99))
	r.set("service.mine_wall_p50_ms", median(wall))
	for _, c := range []string{"miss", "replay", "watched"} {
		if h := hits[c]; h[1] > 0 {
			r.set("service.cache_hit_ratio."+c, float64(h[0])/float64(h[1]))
		}
	}
	r.set("loadgen.late_p99_ms", quantile(late, 0.99))
	r.notef("generator lateness: p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d operations",
		median(late), quantile(late, 0.99), quantile(late, 1), openOps)
	r.notef("status polls: %d", s.polls.Load())
	if disk > 0 {
		r.set("store.disk_mb", float64(disk)/(1<<20))
		r.set("store.bytes_per_user_byte", float64(disk)/float64(userBytes))
	}
	r.set("stream.tail_evals_per_round", median(tails))
	if r.traced {
		r.set("obs.overhead_ratio", median(traced[true])/median(traced[false]))
		roots := make(map[int]bool)
		for _, sp := range r.tr.spans {
			if sp.Parent < 0 && strings.HasPrefix(sp.Name, "bench.op:") {
				roots[sp.ID] = true
			}
		}
		self := r.tr.selfByLayer(roots)
		cycles := float64(len(tracedCycles))
		r.set("self.bench_ms", ms(self["bench"])/cycles)
		r.set("self.service_ms", ms(self["service"])/cycles)
		s.timeEncode(payloads)
	}
}

// resampledPasses is how many cycles passQuantile draws.
const resampledPasses = 20000

// passQuantile returns the q-quantile of the wait of one cycle whose
// operations each wait like an operation of their class drawn at random
// from the run's waits, estimated over resampledPasses such cycles drawn
// with the run's seed. Unlike a sum of per-class quantiles, which puts
// every operation of the cycle at its class's tail at once, it is the
// quantile of a cycle's wait; and it rests on every wait of the window,
// where the tail of a single class rests on its few slowest waits.
func passQuantile(waits map[string][]float64, q float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	sums := make([]float64, resampledPasses)
	for i := range sums {
		for _, m := range cycleMix {
			xs := waits[m.class]
			if len(xs) == 0 { // every operation of the class failed
				continue
			}
			for j := 0; j < m.n; j++ {
				sums[i] += xs[rng.Intn(len(xs))]
			}
		}
	}
	return quantile(sums, q)
}

// timeEncode times json.Marshal of the run's job payloads and sets
// service.encode_ms, the mean per payload.
func (s *serve) timeEncode(payloads [][]byte) {
	infos := make([]service.JobInfo, 0, len(payloads))
	for _, p := range payloads {
		var info service.JobInfo
		if json.Unmarshal(p, &info) == nil {
			infos = append(infos, info)
		}
	}
	if len(infos) == 0 {
		return
	}
	id := s.r.tr.begin("service.encode", -1)
	start := time.Now()
	for _, info := range infos {
		json.Marshal(info)
	}
	s.r.set("service.encode_ms", ms(time.Since(start))/float64(len(infos)))
	s.r.tr.end(id)
}

// layers measures the in-process per-layer timings of a traced run on the
// run's own inputs and payload sizes.
func (s *serve) layers() error {
	r := s.r
	lid := r.tr.begin("bench.layers", -1)
	defer r.tr.end(lid)

	// Registry.Append, replayed in version order at the run's lineage
	// lengths.
	var lines []string
	for _, rec := range s.records {
		if rec.class == "append" && rec.ok {
			v := rec.version.Version
			for len(lines) < v-1 {
				lines = append(lines, "")
			}
			lines[v-2] = s.appendLines[rec.seq]
		}
	}
	reg := service.NewRegistry()
	ds, _, err := reg.Register(s.lineageBase, false)
	if err != nil {
		return err
	}
	var appendMS []float64
	var lineage bytes.Buffer
	lineage.Write(s.lineageText)
	for _, line := range lines {
		if line == "" { // an append whose answer was lost
			continue
		}
		extra, err := uncertain.Read(strings.NewReader(line))
		if err != nil {
			return err
		}
		lineage.WriteString(line)
		id := r.tr.begin("service.RegistryAppend", lid)
		start := time.Now()
		_, _, err = reg.Append(ds.ID, extra.Transactions())
		appendMS = append(appendMS, ms(time.Since(start)))
		r.tr.end(id)
		if err != nil {
			return err
		}
	}
	r.set("service.registry_append_ms", median(appendMS))

	// The durable store, with fsync, at the run's payload sizes: the
	// largest job body and the final lineage version.
	var payload []byte
	for _, rec := range s.records {
		if len(rec.raw) > len(payload) {
			payload = rec.raw
		}
	}
	dir := filepath.Join(r.workDir, "store-probe")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	timeOp := func(name string, n int, f func(i int) error) error {
		var xs []float64
		for i := 0; i < n; i++ {
			id := r.tr.begin("store."+name, lid)
			start := time.Now()
			err := f(i)
			xs = append(xs, ms(time.Since(start)))
			r.tr.end(id)
			if err != nil {
				return fmt.Errorf("store %s: %w", name, err)
			}
		}
		r.set("store."+name+"_ms", median(xs))
		return nil
	}
	key := func(i int) string { return fmt.Sprintf("probe-%d", i) }
	if err := timeOp("put_result", 20, func(i int) error { return st.PutResult(key(i), payload) }); err != nil {
		return err
	}
	if err := timeOp("get_result", 20, func(i int) error {
		_, ok, err := st.GetResult(key(i))
		if err == nil && !ok {
			err = errors.New("stored result not found")
		}
		return err
	}); err != nil {
		return err
	}
	if err := timeOp("put_dataset", 10, func(i int) error { return st.PutDataset(key(i), lineage.Bytes()) }); err != nil {
		return err
	}

	final, err := uncertain.Read(&lineage)
	if err != nil {
		return err
	}
	build, err := r.buildDB(final, lid)
	if err != nil {
		return err
	}
	r.set("uncertain.build_ms", ms(build))
	opts, err := s.missOpts.Options()
	if err != nil {
		return err
	}
	pinned := s.pinned[0].db
	res, err := core.Mine(pinned, opts)
	if err != nil {
		return err
	}
	r.timeTails(tailInputs(pinned, res.Itemsets, s.missOpts.MinSup, 8), int(r.metrics["core.tail_evals"]), lid)
	r.timeAnd(pinned, lid)
	return nil
}
