package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/probdata/pfcim/internal/store"
	"github.com/probdata/pfcim/internal/uncertain"
)

// drainNow shuts a test server's pool down mid-test so a successor can own
// the same store directory (testServer's cleanup will re-Drain harmlessly).
func drainNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func submitAndWait(t *testing.T, baseURL, dataset string, minSup int) JobInfo {
	t.Helper()
	resp := postJSON(t, baseURL+"/v1/jobs", map[string]any{
		"dataset": dataset,
		"options": map[string]any{"min_sup": minSup, "pfct": 0.5},
	})
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	return waitJob(t, baseURL, decode[JobInfo](t, resp).ID)
}

// TestStoreRestoreServesCacheHits is the in-process version of the kill-
// restart e2e: a second daemon on the same store directory must list the
// first's datasets at their recorded versions and serve its mined results
// as byte-identical cache hits without re-mining.
func TestStoreRestoreServesCacheHits(t *testing.T) {
	dir := t.TempDir()

	sA, tsA := testServer(t, Config{Workers: 2, StoreDir: dir})
	root := uploadDB(t, tsA.URL, uncertain.PaperExample())
	jobA := submitAndWait(t, tsA.URL, root.ID, 2)
	if jobA.Status != StatusDone || jobA.Cached {
		t.Fatalf("first mine: %+v", jobA)
	}
	// Grow the lineage to version 2 so restore has a chain to resume.
	resp, err := http.Post(tsA.URL+"/v1/datasets/"+root.ID+"/append", "text/plain",
		bytes.NewReader([]byte("0 1 2 3 : 0.9\n")))
	if err != nil {
		t.Fatal(err)
	}
	v2 := decode[DatasetInfo](t, resp)
	if v2.Version != 2 {
		t.Fatalf("append: %+v", v2)
	}
	if got := sA.Metrics(); got["store_datasets_persisted"] != 2 || got["store_results_persisted"] != 1 {
		t.Fatalf("write-through metrics: %+v", got)
	}
	drainNow(t, sA)
	tsA.Close()

	sB, tsB := testServer(t, Config{Workers: 2, StoreDir: dir})
	// The lineage resumed at its recorded version.
	dsResp, err := http.Get(tsB.URL + "/v1/datasets/" + root.ID + "@latest")
	if err != nil {
		t.Fatal(err)
	}
	latest := decode[DatasetInfo](t, dsResp)
	if latest.ID != v2.ID || latest.Version != 2 || latest.LatestVersion != 2 || latest.Lineage != root.ID {
		t.Fatalf("restored @latest: %+v", latest)
	}
	// The prior result serves as a cache hit: 200 (terminal at submit),
	// cached, zero mining wall time, byte-identical result.
	jobB := submitAndWait(t, tsB.URL, root.ID, 2)
	if jobB.Status != StatusDone || !jobB.Cached {
		t.Fatalf("restored submit not a cache hit: %+v", jobB)
	}
	wantRes, _ := json.Marshal(jobA.Result)
	gotRes, _ := json.Marshal(jobB.Result)
	if !bytes.Equal(wantRes, gotRes) {
		t.Fatalf("restored result differs:\n%s\nvs\n%s", gotRes, wantRes)
	}
	m := sB.Metrics()
	if m["cache_hits"] != 1 || m["store_restored_results"] != 1 {
		t.Fatalf("restore metrics: %+v", m)
	}
	if m["mine_wall_ms"] != 0 || m["cache_misses"] != 0 {
		t.Fatalf("restored daemon re-mined: %+v", m)
	}
	if m["store_restored_datasets"] != 2 {
		t.Fatalf("store_restored_datasets = %d, want 2", m["store_restored_datasets"])
	}

	// Appends resume where the lineage left off — version 3, not a reset.
	resp, err = http.Post(tsB.URL+"/v1/datasets/"+root.ID+"/append", "text/plain",
		bytes.NewReader([]byte("1 2 4 : 0.8\n")))
	if err != nil {
		t.Fatal(err)
	}
	v3 := decode[DatasetInfo](t, resp)
	if v3.Version != 3 || v3.Lineage != root.ID {
		t.Fatalf("append after restore: %+v", v3)
	}
}

// TestStoreImmutabilitySurvivesRestart pins that the immutable flag rides
// the lineage record: appends to a frozen lineage still 409 after restart.
func TestStoreImmutabilitySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := testServer(t, Config{StoreDir: dir})
	var buf bytes.Buffer
	if err := uncertain.Write(&buf, uncertain.PaperExample()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(tsA.URL+"/v1/datasets?immutable=true", "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	frozen := decode[DatasetInfo](t, resp)
	if !frozen.Immutable {
		t.Fatalf("registration not immutable: %+v", frozen)
	}
	drainNow(t, sA)
	tsA.Close()

	_, tsB := testServer(t, Config{StoreDir: dir})
	resp, err = http.Post(tsB.URL+"/v1/datasets/"+frozen.ID+"/append", "text/plain",
		bytes.NewReader([]byte("0 1 : 0.5\n")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("append to restored immutable lineage: status %d, want 409", resp.StatusCode)
	}
}

// TestStoreReadThroughOutlivesLRU pins that durability is independent of
// the LRU budget: with a one-entry cache, an evicted result still answers
// as a cache hit via store read-through.
func TestStoreReadThroughOutlivesLRU(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2, CacheSize: 1, StoreDir: t.TempDir()})
	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	first := submitAndWait(t, ts.URL, ds.ID, 2)
	second := submitAndWait(t, ts.URL, ds.ID, 3) // evicts the min_sup=2 entry
	if first.Cached || second.Cached {
		t.Fatalf("fresh mines reported cached: %+v / %+v", first, second)
	}
	again := submitAndWait(t, ts.URL, ds.ID, 2)
	if !again.Cached {
		t.Fatalf("evicted result did not read through: %+v", again)
	}
	w1, _ := json.Marshal(first.Result)
	w2, _ := json.Marshal(again.Result)
	if !bytes.Equal(w1, w2) {
		t.Fatalf("read-through result differs")
	}
	if m := s.Metrics(); m["store_restored_results"] != 1 {
		t.Fatalf("store_restored_results = %d, want 1", m["store_restored_results"])
	}
}

// TestStoreQuarantineDegradesToReMine pins the recovery path: a result
// segment damaged on disk is quarantined at the next startup (counted, not
// fatal), and the affected submission simply re-mines.
func TestStoreQuarantineDegradesToReMine(t *testing.T) {
	dir := t.TempDir()
	sA, tsA := testServer(t, Config{Workers: 2, StoreDir: dir})
	ds := uploadDB(t, tsA.URL, uncertain.PaperExample())
	if j := submitAndWait(t, tsA.URL, ds.ID, 2); j.Status != StatusDone {
		t.Fatalf("mine: %+v", j)
	}
	drainNow(t, sA)
	tsA.Close()

	// Flip one bit in every stored result segment.
	seen := 0
	entries, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, "results", e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		seen++
	}
	if seen == 0 {
		t.Fatal("no result segments were persisted")
	}

	sB, tsB := testServer(t, Config{Workers: 2, StoreDir: dir})
	if q := sB.Metrics()["store_quarantined"]; q != int64(seen) {
		t.Fatalf("store_quarantined = %d, want %d", q, seen)
	}
	j := submitAndWait(t, tsB.URL, ds.ID, 2)
	if j.Status != StatusDone || j.Cached {
		t.Fatalf("after quarantine, submission should re-mine: %+v", j)
	}
	if m := sB.Metrics(); m["cache_misses"] != 1 || m["jobs_done"] != 1 {
		t.Fatalf("re-mine metrics: %+v", m)
	}
}

// TestStoreOpenFailure pins that an unusable store directory fails New with
// an error instead of silently serving without durability.
func TestStoreOpenFailure(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Config{StoreDir: filepath.Join(file, "store"), Logger: quietLogger()})
	if err == nil {
		t.Fatal("New accepted a store dir under a regular file")
	}
}

// parkFS parks the fsync of every result segment while armed, until
// released: a store disk that has stalled mid-snapshot.
type parkFS struct {
	store.FS
	armed   atomic.Bool
	parked  chan struct{} // one value per parked Sync
	release chan struct{} // closed to let every parked Sync finish
}

type parkFile struct {
	store.File
	fs *parkFS
}

func (p *parkFS) Create(path string) (store.File, error) {
	f, err := p.FS.Create(path)
	if err != nil || !strings.Contains(path, "results") {
		return f, err
	}
	return parkFile{File: f, fs: p}, nil
}

func (f parkFile) Sync() error {
	if f.fs.armed.Load() {
		f.fs.parked <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestResultSnapshotOffJobLock: a finished result's snapshot fsyncs the
// store, and a slow disk must stall only that job — not status reads of
// other jobs or the job list. A job reads done only once its snapshot is
// durable. Both snapshot paths are covered: a single job and a sweep's
// freshly computed points.
func TestResultSnapshotOffJobLock(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 2, StoreDir: dir, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	pfs := &parkFS{FS: store.OS(), parked: make(chan struct{}, 16), release: make(chan struct{})}
	st, err := store.OpenFS(pfs, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s.persist.st = st // the registry and the cache share this persister
	ts := httptest.NewServer(s.Handler())
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(pfs.release) }) }
	t.Cleanup(func() {
		release()
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})

	ds := uploadDB(t, ts.URL, uncertain.PaperExample())
	other := submitAndWait(t, ts.URL, ds.ID, 2)
	if other.Status != StatusDone {
		t.Fatalf("unparked job: %+v", other)
	}

	// Every request below must answer promptly while snapshots are parked.
	client := &http.Client{Timeout: 2 * time.Second}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while a snapshot is parked: %v", path, err)
		}
		return resp
	}
	submit := func(path string, body map[string]any) JobInfo {
		t.Helper()
		blob, _ := json.Marshal(body)
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("POST %s while a snapshot is parked: %v", path, err)
		}
		info := decode[JobInfo](t, resp)
		select {
		case <-pfs.parked:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: no result snapshot reached the store", path)
		}
		return info
	}
	pfs.armed.Store(true)
	parked := []JobInfo{
		submit("/v1/jobs", map[string]any{
			"dataset": ds.ID, "options": map[string]any{"min_sup": 1, "pfct": 0.5},
		}),
		submit("/v1/sweeps", map[string]any{
			"dataset": ds.ID, "options": map[string]any{"min_sup": 3, "pfct": 0.5},
			"points": []map[string]any{{"pfct": 0.6}, {"pfct": 0.7}},
		}),
	}
	if got := decode[JobInfo](t, get("/v1/jobs/"+other.ID)); got.Status != StatusDone {
		t.Fatalf("other job while parked: %+v", got)
	}
	if list := decode[[]JobInfo](t, get("/v1/jobs")); len(list) != 3 {
		t.Fatalf("job list while parked has %d jobs, want 3", len(list))
	}
	for _, j := range parked {
		if got := decode[JobInfo](t, get("/v1/jobs/"+j.ID)); got.Status != StatusRunning {
			t.Fatalf("job %s reads %s before its result is durable", j.ID, got.Status)
		}
	}

	pfs.armed.Store(false)
	release()
	for _, j := range parked {
		if got := waitJob(t, ts.URL, j.ID); got.Status != StatusDone {
			t.Fatalf("parked job after release: %+v", got)
		}
	}
	// 1 + 1 job results and the sweep's 2 points.
	if got := s.Metrics()["store_results_persisted"]; got != 4 {
		t.Fatalf("store_results_persisted = %v, want 4", got)
	}
}
