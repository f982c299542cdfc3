package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"extrareq"
	"extrareq/internal/apps"
	"extrareq/internal/campaign"
	"extrareq/internal/cli"
	"extrareq/internal/obs"
	"extrareq/internal/serve"
	"extrareq/internal/workload"
)

// The serve workloads are a closed loop of serveClients keep-alive HTTP
// clients against an in-process reqserve core, wired the way cmd/reqserve
// wires it. Set-up pre-warms hotSpecs small campaigns, more than the
// scheduler's campaign LRU holds, so hits split between memory and the
// store. The request mix:
//
//   - hit (70%): POST /v1/campaigns of a uniformly drawn hot spec;
//   - models (20%): GET /v1/campaigns/{key}/models of a hot key, which
//     refits on the serving path;
//   - write (10%): POST of a hot spec with one n column replaced by a
//     never-seen n, so assembly reuses 6 points and measures 3.
//
// serve-disk gives the server a DiskStore; serve-remote gives it no local
// store and a RemoteStore pointing at a second in-process reqserve peer.

const (
	hotSpecs     = 96
	serveClients = 2
	hitShare     = 0.70
	modelsShare  = 0.20 // writes are the rest
	// serveOpsMax bounds the generated request sequence; the novel-n pools
	// bound the writes in it (see novelNs).
	serveOpsMax = 200000
	// serveSetupReps is higher than the studies' setupReps: pre-warming
	// writes about a thousand fsync'd entries, whose latency varies more
	// than the studies' CPU-bound set-up does.
	serveSetupReps = 5
)

var (
	hotProcs = []int{2, 3, 4, 6, 8}
	hotNs    = []int{32, 64, 96, 128, 160, 192, 224, 256}
)

// novelNs is the fixed range writes draw never-seen problem sizes from,
// without replacement per app: every n in [33, 1024) that no hot spec uses.
func novelNs() []int {
	var out []int
	for n := 33; n < 1024; n++ {
		if n%32 != 0 {
			out = append(out, n)
		}
	}
	return out
}

type opKind int

const (
	opHit opKind = iota
	opModels
	opWrite
)

var opNames = [...]string{"hit", "models", "write"}

func (k opKind) String() string { return opNames[k] }

// hotSpec is one pre-warmed campaign. key and hitBody are filled in at
// set-up from the server's answers.
type hotSpec struct {
	App  string
	Grid workload.Grid

	body    []byte // the POST body
	key     string
	hitBody []byte
}

// serveOp is one request of the generated sequence.
type serveOp struct {
	kind opKind
	spec int // index into the hot set
	col  int // write: the n column replaced
	n    int // write: the never-seen n
}

// serveLoad generates the hot set and the request sequence from seed. The
// sequence ends early when an app's novel-n pool runs out.
func serveLoad(seed int64, count int) ([]hotSpec, []serveOp) {
	rng := rand.New(rand.NewSource(seed))
	names := extrareq.PaperAppNames()
	pick := func(pool []int) []int {
		idx := rng.Perm(len(pool))[:3]
		out := []int{pool[idx[0]], pool[idx[1]], pool[idx[2]]}
		sort.Ints(out)
		return out
	}
	seen := map[string]bool{}
	var specs []hotSpec
	for len(specs) < hotSpecs {
		s := hotSpec{App: names[len(specs)%len(names)]}
		s.Grid = workload.Grid{Procs: pick(hotProcs), Ns: pick(hotNs), Seed: seed}
		id := fmt.Sprint(s.App, s.Grid.Procs, s.Grid.Ns)
		if seen[id] {
			continue
		}
		seen[id] = true
		specs = append(specs, s)
	}
	pools := map[string][]int{}
	for _, app := range names {
		pool := novelNs()
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		pools[app] = pool
	}
	ops := make([]serveOp, 0, count)
	for len(ops) < count {
		u := rng.Float64()
		op := serveOp{spec: rng.Intn(len(specs))}
		switch {
		case u < hitShare:
			op.kind = opHit
		case u < hitShare+modelsShare:
			op.kind = opModels
		default:
			op.kind = opWrite
			app := specs[op.spec].App
			if len(pools[app]) == 0 {
				return specs, ops
			}
			op.col, op.n = rng.Intn(3), pools[app][0]
			pools[app] = pools[app][1:]
		}
		ops = append(ops, op)
	}
	return specs, ops
}

// writeGrid is the grid of a write op: the hot grid with column op.col
// replaced by the never-seen n.
func writeGrid(s *hotSpec, op serveOp) workload.Grid {
	g := s.Grid
	g.Ns = append([]int(nil), g.Ns...)
	g.Ns[op.col] = op.n
	sort.Ints(g.Ns)
	return g
}

func submitBody(app string, g workload.Grid) []byte {
	b, _ := json.Marshal(serve.SubmitRequest{App: app, Grid: g}) // plain data; cannot fail
	return b
}

// serveChecker validates every response: hit bodies must equal the body
// recorded at set-up, models bodies must equal the first one seen for the
// key, and writes must assemble 6 reused and 3 measured points.
type serveChecker struct {
	mu     sync.Mutex
	models map[string][]byte
	agree  int // model strings equal to the first models answer for the key
	total  int
}

func newServeChecker() *serveChecker { return &serveChecker{models: map[string][]byte{}} }

// outcomeView is the part of a campaign response body the checker reads.
type outcomeView struct {
	CacheHit       bool `json:"cache_hit"`
	PointsReused   int  `json:"points_reused"`
	PointsMeasured int  `json:"points_measured"`
	Campaign       struct {
		Samples []json.RawMessage `json:"samples"`
	} `json:"campaign"`
}

type modelsView struct {
	Models map[string]struct {
		Model string `json:"model"`
	} `json:"models"`
}

// check reports why a response is wrong ("" when it is right) and how many
// points the request measured.
func (c *serveChecker) check(kind opKind, spec *hotSpec, status int, body []byte) (string, int) {
	if status != http.StatusOK {
		return fmt.Sprintf("%s: status %d: %.200s", kind, status, body), 0
	}
	switch kind {
	case opHit:
		if !bytes.Equal(body, spec.hitBody) {
			return "hit: body differs from the one recorded at set-up", 0
		}
	case opModels:
		var got modelsView
		if err := json.Unmarshal(body, &got); err != nil || len(got.Models) == 0 {
			return "models: undecodable body", 0
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		first, ok := c.models[spec.key]
		if !ok {
			c.models[spec.key] = body
			c.agree += len(got.Models)
			c.total += len(got.Models)
			return "", 0
		}
		var want modelsView
		_ = json.Unmarshal(first, &want) // decoded once already
		for m, v := range got.Models {
			c.total++
			if want.Models[m].Model == v.Model {
				c.agree++
			}
		}
		if !bytes.Equal(body, first) {
			return "models: body differs from the first answer for the key", 0
		}
	case opWrite:
		var got outcomeView
		if err := json.Unmarshal(body, &got); err != nil {
			return "write: undecodable body", 0
		}
		if got.CacheHit || got.PointsReused != 6 || got.PointsMeasured != 3 || len(got.Campaign.Samples) != 9 {
			return fmt.Sprintf("write: cache_hit=%v reused=%d measured=%d samples=%d, want false/6/3/9",
				got.CacheHit, got.PointsReused, got.PointsMeasured, len(got.Campaign.Samples)), 0
		}
		return "", got.PointsMeasured
	}
	return "", 0
}

// server is one in-process reqserve.
type server struct {
	srv     *serve.Server
	sched   *campaign.Scheduler
	hs      *http.Server
	served  chan error
	cleanup func()
	url     string
}

func discardLog(string, ...any) {}

// startServer wires a reqserve core the way cmd/reqserve does — flags to
// scheduler options, campaign.New, serve.New, Handler — and serves it on a
// loopback port. With tp set, the store, the scheduler and the handler are
// wrapped in the timed seams.
func startServer(flags cli.ServeFlags, reg *obs.Registry, tp *probe) (*server, error) {
	flags.Addr = "127.0.0.1:0"
	flags.Queue = serve.DefaultQueue
	flags.TenantBurst = serve.DefaultTenantBurst
	flags.RequestTimeout = serve.DefaultRequestTimeout
	flags.AsyncTimeout = serve.DefaultAsyncTimeout
	flags.DrainTimeout = serve.DefaultDrainTimeout
	schedOpts, cleanup, err := flags.SchedulerOptions(reg, discardLog)
	if err != nil {
		return nil, err
	}
	if tp != nil {
		if schedOpts.Store == nil && schedOpts.Dir != "" {
			disk, err := campaign.OpenDiskStore(schedOpts.Dir)
			if err != nil {
				return nil, err
			}
			schedOpts.Store, schedOpts.Dir = disk, ""
		}
		if schedOpts.Store != nil {
			schedOpts.Store = &timedStore{inner: schedOpts.Store, t: tp.t, c: &tp.store}
		}
	}
	sched, err := campaign.New(schedOpts)
	if err != nil {
		cleanup()
		return nil, err
	}
	var runner serve.Runner = sched
	if tp != nil {
		runner = &timedRunner{Scheduler: sched, t: tp.t, c: &tp.runner}
	}
	srv, err := serve.New(flags.ServerOptions(runner, reg, discardLog))
	if err != nil {
		sched.Close()
		cleanup()
		return nil, err
	}
	var handler http.Handler = srv.Handler()
	if tp != nil {
		handler = &timedHandler{h: handler, t: tp.t}
	}
	ln, err := net.Listen("tcp", flags.Addr)
	if err != nil {
		sched.Close()
		cleanup()
		return nil, err
	}
	s := &server{srv: srv, sched: sched, hs: &http.Server{Handler: handler},
		served: make(chan error, 1), cleanup: cleanup, url: "http://" + ln.Addr().String()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the server, shuts the listener down and waits for it.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.srv.Drain(ctx)
	serr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		serr = errors.Join(serr, err)
	}
	s.sched.Close()
	s.cleanup()
	return errors.Join(derr, serr)
}

// serveEnv is one set-up: the server under test (and its peer on
// serve-remote), a client, and the pre-warmed hot set.
type serveEnv struct {
	srv, peer *server
	reg       *obs.Registry
	client    *http.Client
	specs     []hotSpec
	tp        *probe // nil when untraced
	log       io.Writer
	dir       string
}

// setupServe starts the servers and pre-warms the hot set: every spec is
// submitted once (measured and stored) and once more, recording the hit
// body every later hit must reproduce.
func setupServe(cfg config, remote, traced bool, specs []hotSpec) (*serveEnv, error) {
	dir, err := scratchDir(cfg, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{reg: obs.NewRegistry(), specs: append([]hotSpec(nil), specs...), log: cfg.log, dir: dir}
	e.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	if traced {
		e.tp = newProbe(e.reg)
	}
	var flags cli.ServeFlags
	if remote {
		e.peer, err = startServer(cli.ServeFlags{CacheDir: filepath.Join(dir, "peer")}, obs.NewRegistry(), nil)
		if err != nil {
			return nil, err
		}
		flags.CacheRemote = e.peer.url
	} else {
		flags.CacheDir = filepath.Join(dir, "store")
	}
	e.srv, err = startServer(flags, e.reg, e.tp)
	if err != nil {
		e.stop()
		return nil, err
	}
	for pass := 0; pass < 2; pass++ {
		err := parallel(len(e.specs), serveClients, func(i int) error {
			s := &e.specs[i]
			if s.body == nil {
				s.body = submitBody(s.App, s.Grid)
			}
			status, body, hdr, err := e.do(http.MethodPost, "/v1/campaigns", s.body, noSpan)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("pre-warm %s %v: status %d: %.200s", s.App, s.Grid, status, body)
			}
			if pass == 1 {
				s.key, s.hitBody = hdr.Get("X-Campaign-Key"), body
			}
			return nil
		})
		if err != nil {
			e.stop()
			return nil, err
		}
	}
	return e, nil
}

func (e *serveEnv) stop() {
	var errs []error
	if e.srv != nil {
		errs = append(errs, e.srv.stop())
	}
	if e.peer != nil {
		errs = append(errs, e.peer.stop())
	}
	e.client.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(e.dir))
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(e.log, "perfbench: stopping servers: %v\n", err)
	}
}

// do sends one request on the keep-alive client and reads the whole body.
func (e *serveEnv) do(method, path string, body []byte, op int32) (int, []byte, http.Header, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.srv.url+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if op != noSpan {
		req.Header.Set(opHeader, strconv.Itoa(int(op)))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, resp.Header, err
}

// parallel runs f(0..n-1) on workers goroutines and returns the first error.
func parallel(n, workers int, f func(i int) error) error {
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || errs[w] != nil {
					return
				}
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sample is one finished request.
type sample struct {
	kind     opKind
	latency  time.Duration
	failed   bool
	measured int
	bytes    int
}

// drive runs the request sequence with serveClients closed-loop clients,
// until budget has elapsed or, when maxOps > 0, until maxOps requests have
// run. Each request is timed from send to the last byte of the body.
func (e *serveEnv) drive(cfg config, ops []serveOp, budget time.Duration, maxOps int, chk *serveChecker) ([]sample, time.Duration) {
	limit := len(ops)
	if maxOps > 0 {
		limit = min(maxOps, limit)
	}
	var next atomic.Int64
	per := make([][]sample, serveClients)
	var logMu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if maxOps <= 0 && time.Since(start) >= budget {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				s, why := e.request(ops[i])
				if why == "" {
					why, s.measured = chk.check(s.kind, &e.specs[ops[i].spec], s.status, s.body)
				}
				if why != "" {
					s.failed = true
					logMu.Lock()
					fmt.Fprintf(cfg.log, "perfbench: check failed: %s\n", why)
					logMu.Unlock()
				}
				per[c] = append(per[c], s.sample)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// response is a sample plus what the checker needs.
type response struct {
	sample
	status int
	body   []byte
}

// request sends one op and returns its timing, or why it failed to get an
// answer at all.
func (e *serveEnv) request(op serveOp) (response, string) {
	spec := &e.specs[op.spec]
	r := response{sample: sample{kind: op.kind}}
	method, path, body := http.MethodPost, "/v1/campaigns", spec.body
	var key campaign.Key
	hasKey := false
	switch op.kind {
	case opHit:
		if e.tp != nil {
			key, _ = campaign.ParseKey(spec.key)
			hasKey = true
		}
	case opModels:
		method, path, body = http.MethodGet, "/v1/campaigns/"+spec.key+"/models", nil
	case opWrite:
		g := writeGrid(spec, op)
		body = submitBody(spec.App, g)
		if e.tp != nil {
			app, _ := apps.ByName(spec.App)
			key, hasKey = campaign.ComputeKey(campaign.Request{App: app, Grid: g}), true
		}
	}
	id := int32(noSpan)
	if e.tp != nil {
		id = e.tp.t.beginSpan(span{layer: layerOp, parent: noSpan, key: key, hasKey: hasKey})
	}
	start := time.Now()
	status, data, _, err := e.do(method, path, body, id)
	r.latency = time.Since(start)
	if e.tp != nil {
		e.tp.t.end(id)
	}
	r.status, r.body, r.bytes = status, data, len(data)
	if err != nil {
		return r, fmt.Sprintf("%s: %v", op.kind, err)
	}
	return r, ""
}

// serveSummary is the per-class view of a driven phase.
type serveSummary struct {
	ops, failed, measured int
	bytes                 int64
	lat                   [3][]float64 // ms per class, successful requests only
}

func summarize(samples []sample) serveSummary {
	var s serveSummary
	for _, x := range samples {
		s.ops++
		s.bytes += int64(x.bytes)
		if x.failed {
			s.failed++
			continue
		}
		s.measured += x.measured
		s.lat[x.kind] = append(s.lat[x.kind], ms(x.latency))
	}
	return s
}

func runServe(ctx context.Context, cfg config, remote bool) (*result, error) {
	specs, ops := serveLoad(cfg.seed, serveOpsMax)
	name := "serve-disk"
	if remote {
		name = "serve-remote"
	}
	budget := cfg.seconds
	if cfg.trace {
		budget = cfg.seconds / 2
	}
	env, setupS, err := medianSetup(serveSetupReps,
		func() (*serveEnv, error) { return setupServe(cfg, remote, false, specs) },
		(*serveEnv).stop)
	if err != nil {
		return nil, err
	}
	chk := newServeChecker()
	cpu0 := cpuTime()
	samples, elapsed := env.drive(cfg, ops, budget, 0, chk)
	cpu := cpuTime() - cpu0
	env.stop()
	sum := summarize(samples)
	if sum.ops == len(ops) {
		return nil, fmt.Errorf("request sequence of %d ops exhausted; lower --seconds", len(ops))
	}
	res := &result{Attempted: sum.ops, Failed: sum.failed, Correct: sum.failed == 0, Metrics: map[string]metric{}}
	if cfg.trace {
		return traceServe(cfg, res, remote, specs, ops, sum.ops, elapsed, chk, name)
	}
	res.Metrics = endToEnd(setupS, percentile(sum.lat[opHit], 0.5), sum.ops, sum.failed, sum.measured, chk.agree, chk.total)
	fmt.Fprintf(cfg.log, "%s seed=%d: %d requests (%d failed; %d hit, %d models, %d write)\n", name, cfg.seed,
		sum.ops, sum.failed, len(sum.lat[opHit]), len(sum.lat[opModels]), len(sum.lat[opWrite]))
	printTable(cfg.log, res.Metrics, []row{
		{"cpu_ms_per_op", ms(cpu) / float64(max(sum.ops, 1)), "ms (CPU)"},
		{"ops_per_s", float64(sum.ops) / elapsed.Seconds(), "1/s"},
		{"hit_p50_ms", percentile(sum.lat[opHit], 0.5), "ms"},
		{"hit_p90_ms", percentile(sum.lat[opHit], 0.9), "ms"},
		{"hit_p99_ms", percentile(sum.lat[opHit], 0.99), "ms"},
		{"models_p50_ms", percentile(sum.lat[opModels], 0.5), "ms"},
		{"models_p90_ms", percentile(sum.lat[opModels], 0.9), "ms"},
		{"write_p50_ms", percentile(sum.lat[opWrite], 0.5), "ms"},
		{"write_p90_ms", percentile(sum.lat[opWrite], 0.9), "ms"},
	})
	return res, nil
}

// traceServe replays the untraced phase's requests against a fresh, traced
// set-up on the same seed.
func traceServe(cfg config, res *result, remote bool, specs []hotSpec, ops []serveOp, n int,
	untraced time.Duration, chk *serveChecker, name string) (*result, error) {
	env, err := setupServe(cfg, remote, true, specs)
	if err != nil {
		return nil, err
	}
	st0 := env.srv.sched.Stats()
	env.tp.begin()
	samples, elapsed := env.drive(cfg, ops, 0, n, chk)
	env.tp.addStats(statsDelta(st0, env.srv.sched.Stats()))
	sum := summarize(samples)
	ph := env.tp.finish(sum.ops, sum.bytes)
	env.stop()
	res.Attempted += sum.ops
	res.Failed += sum.failed
	res.Correct = res.Failed == 0
	ph.metrics["trace.overhead_frac"] = metric{elapsed.Seconds()/untraced.Seconds() - 1, "frac"}
	res.Metrics = ph.metrics
	printReconciliation(cfg.log, name, ph)
	return res, nil
}
