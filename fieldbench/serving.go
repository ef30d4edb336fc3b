package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The serving tier is wired the way cmd/paeserve and cmd/paerouter wire it
// by default: a Recorder without runtime sampling, a 32-trace TraceLog, the
// default admission bound and timeouts, and the router's default ladder,
// retry, shedding and breaker settings.
const (
	backends         = 2
	serveMaxInflight = 64
	serveTimeout     = 30 * time.Second
	routerInflight   = 256
	traceBuffer      = 32
	batchSize        = 16
	warmupPages      = 200
)

// backendProc is one in-process serve.Server on a loopback listener.
type backendProc struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan struct{}
}

// fleetProc is two backends behind one fleet.Router, all in this process.
type fleetProc struct {
	backends  []*backendProc
	router    *fleet.Router
	routerRec *obs.Recorder
	http      *http.Server
	url       string
	done      chan struct{}
}

func listenLoopback(h http.Handler) (*http.Server, string, chan struct{}, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return srv, "http://" + ln.Addr().String(), done, nil
}

func startFleet(bundlePath string, logger *slog.Logger) (*fleetProc, error) {
	f := &fleetProc{}
	var urls []string
	for i := 0; i < backends; i++ {
		s, err := serve.New(serve.Config{
			BundlePath:  bundlePath,
			MaxInflight: serveMaxInflight,
			Timeout:     serveTimeout,
			Obs:         obs.New(obs.Options{Logger: logger, NoRuntimeStats: true}),
			Traces:      obs.NewTraceLog(traceBuffer),
		})
		if err != nil {
			f.stop()
			return nil, err
		}
		hs, url, done, err := listenLoopback(s.Handler())
		if err != nil {
			s.Close()
			f.stop()
			return nil, err
		}
		f.backends = append(f.backends, &backendProc{srv: s, http: hs, url: url, done: done})
		urls = append(urls, url)
	}
	f.routerRec = obs.New(obs.Options{Logger: logger, NoRuntimeStats: true})
	rt, err := fleet.New(fleet.Config{
		Backends:    urls,
		MaxInflight: routerInflight,
		Obs:         f.routerRec,
		Traces:      obs.NewTraceLog(traceBuffer),
		Logger:      logger,
	})
	if err != nil {
		f.stop()
		return nil, err
	}
	rt.ProbeAll(context.Background())
	rt.Start()
	f.router = rt
	hs, url, done, err := listenLoopback(rt.Handler())
	if err != nil {
		f.stop()
		return nil, err
	}
	f.http, f.url, f.done = hs, url, done
	return f, nil
}

// kill stops backend i abruptly, dropping its open connections, the way a
// crashed replica disappears.
func (f *fleetProc) kill(i int) {
	b := f.backends[i]
	b.http.Close()
	<-b.done
}

// stop shuts the router and every backend down and waits for them.
func (f *fleetProc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if f.http != nil {
		f.http.Shutdown(ctx)
		<-f.done
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, b := range f.backends {
		b.http.Shutdown(ctx)
		<-b.done
		b.srv.Close()
	}
}

// waitHealthy polls the router's /healthz until every backend is healthy.
func (f *fleetProc) waitHealthy(c *http.Client, within time.Duration) error {
	deadline := time.Now().Add(within)
	for {
		resp, err := c.Get(f.url + "/healthz")
		if err == nil {
			var h struct {
				Healthy int `json:"healthy"`
			}
			json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if h.Healthy == backends {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not healthy after %s", within)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// response is one /extract request as the load generator saw it.
type response struct {
	phase  string
	first  int // pool index of the first page
	n      int // pages in the request
	due    time.Time
	late   time.Duration // open loop: how late the generator dispatched it
	dur    time.Duration // from due time to the last response byte
	status int
	bundle string
	body   []byte
	err    error
}

func (r *response) ok() bool { return r.err == nil && r.status == http.StatusOK }

// loader sends held-out pages, each at most once per run.
type loader struct {
	client *http.Client
	bodies [][]byte
	next   atomic.Int64
	limit  int64 // end of the current phase's pool segment
	conns  int
}

func newLoader() *loader {
	conns := runtime.NumCPU()
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &loader{client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, conns: conns}
}

// load hands the loader a new set of pages, replacing the last one.
func (l *loader) load(bodies [][]byte) {
	l.bodies = bodies
	l.next.Store(0)
	l.limit = 0
}

// segment hands the next phase the following n loaded pages, so a phase
// that runs faster than expected cannot eat the pages of the phases after
// it.
func (l *loader) segment(n int) {
	l.next.Store(l.limit)
	l.limit = min(l.limit+int64(n), int64(len(l.bodies)))
}

// take reserves n consecutive pages of the current segment, or returns -1
// when the segment is exhausted.
func (l *loader) take(n int) int {
	end := l.next.Add(int64(n))
	if end > l.limit {
		return -1
	}
	return int(end) - n
}

// body builds the request body for pages [first, first+n).
func (l *loader) body(first, n int) []byte {
	if n == 1 {
		return l.bodies[first]
	}
	// A single-page body {"id":…,"html":…} is byte for byte a batch page.
	var buf bytes.Buffer
	buf.WriteString(`{"pages":[`)
	for i := first; i < first+n; i++ {
		if i > first {
			buf.WriteByte(',')
		}
		buf.Write(l.bodies[i])
	}
	buf.WriteString(`]}`)
	return buf.Bytes()
}

func (l *loader) do(url, phase string, first, n int, due time.Time) *response {
	r := &response{phase: phase, first: first, n: n, due: due}
	resp, err := l.client.Post(url+"/extract", "application/json", bytes.NewReader(l.body(first, n)))
	if err != nil {
		r.err = err
		r.dur = time.Since(due)
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.dur = time.Since(due)
	r.status = resp.StatusCode
	r.bundle = resp.Header.Get(serve.BundleHeader)
	return r
}

// phaseResult is one load phase's responses. length is how long the phase
// issued requests at full load: its planned duration, or less when its pool
// segment ran out first.
type phaseResult struct {
	resps  []*response
	start  time.Time
	length time.Duration
	short  bool // the phase ran out of pool pages before its time was up
}

// Each phase is cut into up to maxWindows slices of at least minWindowReqs
// expected requests. Rates and p50s are medians across the slices of all
// rounds of a phase, and p99s medians across its rounds (a p99 needs many
// more samples than a slice holds), so a burst of noise from outside the
// process moves a few slices or one round, not the result.
const (
	maxWindows    = 4
	minWindowReqs = 100
)

// windowStats returns, for the rounds ps of one phase, the median across
// windows of pages per second and of the p50 latency of successful
// requests, the median across rounds of their p99 latency, and the number
// of latency samples. expected is the phase's expected rate in requests per
// second, which sets its window count. A request's latency belongs to the
// window its due time falls in; requests due after the last whole window
// are left out. Its pages count towards a window's rate in proportion to
// the part of its flight time that falls inside the window, so the rate of
// a window holding a few large batches is not rounded to whole requests.
func windowStats(ps []*phaseResult, expected float64) (rate, p50, p99 float64, samples int) {
	var rates, p50s, p99s []float64
	for _, p := range ps {
		n := min(max(int(expected*p.length.Seconds()/minWindowReqs), 1), maxWindows)
		w := p.length / time.Duration(n)
		if w <= 0 {
			continue
		}
		wins := make([][]time.Duration, n)
		pages := make([]float64, n)
		var round []time.Duration
		for _, r := range p.resps {
			if !r.ok() {
				continue
			}
			sent := r.due.Sub(p.start)
			if i := int(sent / w); i >= 0 && i < n {
				wins[i] = append(wins[i], r.dur)
				round = append(round, r.dur)
			}
			for i := max(int(sent/w), 0); i < n && time.Duration(i)*w < sent+r.dur; i++ {
				lo, hi := max(sent, time.Duration(i)*w), min(sent+r.dur, time.Duration(i+1)*w)
				pages[i] += float64(r.n) * float64(hi-lo) / float64(r.dur)
			}
		}
		samples += len(round)
		if len(round) > 0 {
			p99s = append(p99s, quantile(millis(round), 0.99))
		}
		for i, lat := range wins {
			rates = append(rates, pages[i]/w.Seconds())
			if len(lat) > 0 {
				p50s = append(p50s, quantile(millis(lat), 0.5))
			}
		}
	}
	return median(rates), median(p50s), median(p99s), samples
}

// closed runs a closed loop of n-page requests over l.conns connections
// until d has passed or the phase's pool segment is used up.
func (l *loader) closed(url, phase string, n int, d time.Duration) *phaseResult {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]*response, l.conns)
	var mu sync.Mutex
	var ranOut time.Time
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				first := l.take(n)
				if first < 0 {
					mu.Lock()
					if ranOut.IsZero() {
						ranOut = time.Now()
					}
					mu.Unlock()
					return
				}
				per[w] = append(per[w], l.do(url, phase, first, n, time.Now()))
			}
		}(w)
	}
	wg.Wait()
	p := &phaseResult{start: start, length: d}
	if !ranOut.IsZero() {
		p.short, p.length = true, ranOut.Sub(start)
	}
	for _, rs := range per {
		p.resps = append(p.resps, rs...)
	}
	return p
}

// open runs an open loop of single-page requests at a fixed rate. Each
// request is timed from when it was due, so queueing behind slow responses
// shows; late records how far behind schedule the generator dispatched it.
func (l *loader) open(url, phase string, rate float64, d time.Duration) *phaseResult {
	total := int(rate * d.Seconds())
	p := &phaseResult{start: time.Now().Add(time.Millisecond), length: d}
	resps := make([]*response, total)
	var wg sync.WaitGroup
	sent := 0
	for k := 0; k < total; k++ {
		due := p.start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			pace(wait)
		}
		first := l.take(1)
		if first < 0 {
			p.short, p.length = true, due.Sub(p.start)
			break
		}
		late := time.Since(due)
		sent++
		wg.Add(1)
		go func(k, first int, due time.Time) {
			defer wg.Done()
			r := l.do(url, phase, first, 1, due)
			r.late = late
			resps[k] = r
		}(k, first, due)
	}
	wg.Wait()
	p.resps = resps[:sent]
	return p
}

// phasePlan holds one round's phase durations and the held-out pages each
// phase gets per run of it: its expected rate times its duration, with room
// to spare. There is one round per training cycle. Phases (a) and (c) split
// the round; a traced run adds phase (b) and the direct loop on top, so (a)
// and (c) run as long in both modes.
type phasePlan struct {
	single, open, batch, direct time.Duration
	pages                       map[string]int
}

func (b *bench) phasePlan() phasePlan {
	round := b.o.seconds * b.sp.serveShare / float64(b.sp.cycles)
	sec := func(f float64) time.Duration { return time.Duration(f * round * float64(time.Second)) }
	p := phasePlan{single: sec(0.55), batch: sec(0.45)}
	p.pages = map[string]int{
		"warmup": warmupPages,
		"single": int(1.5 * b.sp.pageRPS * p.single.Seconds()),
		"batch":  int(1.5*b.sp.batchPPS*p.batch.Seconds()) + batchSize,
	}
	if b.o.trace {
		p.open, p.direct = sec(0.3), sec(0.4)
		p.pages["open"] = int(1.1 * b.sp.openRate * p.open.Seconds())
		p.pages["direct"] = int(1.5 * b.sp.pageRPS * p.direct.Seconds())
	}
	return p
}

// roundPages is how many held-out pages one round needs.
func (p phasePlan) roundPages() int {
	return p.pages["single"] + p.pages["open"] + p.pages["batch"]
}
