package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/triples"
)

// spec is one workload: a full field cycle — bootstrap, bundle, append and
// incremental retrain, then serving through a two-backend fleet — sized so
// that the layer the workload is named after dominates.
type spec struct {
	name       string
	model      core.ModelKind
	items      int     // pages per training corpus
	iterations int     // bootstrap iterations
	delta      int     // pages appended before the incremental retrain
	cycles     int     // bootstrap-then-retrain cycles per run, each on its own corpus
	serveShare float64 // share of --seconds the serving phases take
	openRate   float64 // phase (b) arrival rate, requests per second
	// Expected serving rates on a 2-CPU machine, used only to size the
	// held-out page pool; a phase that runs out of pages ends early and is
	// measured over the time it ran at full load.
	pageRPS, batchPPS float64
}

var specs = []spec{
	{name: "bootstrap-crf", model: core.CRF, items: 240, iterations: 3, delta: 60, cycles: 4,
		serveShare: 0.5, openRate: 1000, pageRPS: 4500, batchPPS: 8500},
	{name: "bootstrap-rnn", model: core.RNN, items: 240, iterations: 2, delta: 60, cycles: 4,
		serveShare: 1, openRate: 100, pageRPS: 500, batchPPS: 600},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// setupReps is how many times a run builds its training corpora; the corpus
// part of setup_s is the median, so one slow set-up does not move it.
const setupReps = 3

// options are one run's parameters.
type options struct {
	root     string // checkout root; all writes go under root/.bench_build
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    float64 // multiplies the corpus and delta sizes; only tests set it, 0 means 1
	log      io.Writer

	// Test hooks. onPhase runs as each serving phase starts; tamper may
	// alter the recorded responses before they are verified.
	onPhase func(phase string, f *fleetProc)
	tamper  func([]*response)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run's result line plus the diagnostics printed before it.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	info     map[string]any
}

// bench carries one run's state.
type bench struct {
	o    options
	sp   spec
	root *obs.Span // the run's root span; nil when untraced
	log  *slog.Logger
	ctx  context.Context
	host hostInfo

	e2e     map[string]metric
	layer   map[string]float64
	samples map[string]int
	info    map[string]any

	attempted, failed int
	problems          []string
	digests           *digestStore

	corpusSetup  float64 // median corpus set-up time; servePhases adds the fleet's
	pipelineTree *obs.Report
	replay       *replayReport
}

func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	b.log.Error("check failed", "problem", msg)
}

// cycleInput is one training corpus, written to disk, and the delta pages
// appended to it before the retrain.
type cycleInput struct {
	dir   string // corpus directory
	base  *gen.Corpus
	delta *gen.Corpus
}

// inputs are what set-up builds.
type inputs struct {
	dir    string
	cycles []cycleInput
}

func scaled(n int, f float64) int {
	return max(int(float64(n)*f+0.5), 1)
}

func run(o options) (*outcome, error) {
	sp, ok := lookupSpec(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	if o.scale <= 0 {
		o.scale = 1
	}
	if o.log == nil {
		o.log = os.Stderr
	}
	sp.items = scaled(sp.items, o.scale)
	sp.delta = scaled(sp.delta, o.scale)
	if o.trace {
		sp.cycles = 1
	}
	b := &bench{
		o: o, sp: sp,
		log:     slog.New(slog.NewTextHandler(o.log, &slog.HandlerOptions{Level: slog.LevelInfo})),
		ctx:     context.Background(),
		host:    newHostInfo(o.root, o.seed),
		e2e:     map[string]metric{},
		layer:   map[string]float64{},
		samples: map[string]int{},
		info:    map[string]any{},
	}
	runID := fmt.Sprintf("%s-seed%d-%d", sp.name, o.seed, time.Now().UnixNano())
	var rec *obs.Recorder
	if o.trace {
		rec = obs.New(obs.Options{NoRuntimeStats: true})
		b.root = rec.StartRun("fieldbench")
		b.root.SetAttr("run", runID)
	}
	build := filepath.Join(o.root, ".bench_build")
	b.digests = openDigestStore(filepath.Join(build, "digests"),
		fmt.Sprintf("%.16s-%s-%s-seed%d", b.host.Source, b.host.GoVersion, sp.name, o.seed))
	work := filepath.Join(build, "work", fmt.Sprintf("%s-%d", runID, os.Getpid()))
	defer os.RemoveAll(work)

	warmCPUs(time.Second)
	in, err := b.setup(work)
	if err != nil {
		return nil, err
	}
	if err := b.measure(in); err != nil {
		return nil, err
	}
	if err := b.digests.save(); err != nil {
		return nil, err
	}
	b.info["host"] = b.host
	b.info["samples"] = b.samples
	b.info["run_id"] = runID
	out := &outcome{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   map[string]metric{},
		problems:  b.problems,
		info:      b.info,
	}
	if !o.trace {
		for _, m := range e2eMetrics {
			v, ok := b.e2e[m.name]
			if !ok {
				return nil, fmt.Errorf("metric %s was not measured", m.name)
			}
			out.Metrics[m.name] = v
		}
		return out, nil
	}
	b.layer["failed_ratio"] = ratio(float64(b.failed), float64(b.attempted))
	for _, m := range layerMetrics {
		out.Metrics[m.name] = metric{Value: b.layer[m.name], Unit: m.unit}
	}
	path := filepath.Join(build, "traces", runID+".json")
	tf := traceFile{RunID: runID, Workload: sp.name, Host: b.host,
		Replay: b.replay, Layers: b.layer, Samples: b.samples}
	if b.pipelineTree != nil {
		tf.Pipeline = b.pipelineTree.Span
	}
	if err := writeTrace(rec, b.root, path, tf); err != nil {
		return nil, err
	}
	b.info["trace_file"] = path
	return out, nil
}

// cycleSeed is the generator seed of cycle r's corpus. Each delta uses its
// corpus seed + 2 and the held-out pool's parts seed + 1 + 7919k, so no two
// inputs share a seed.
func (b *bench) cycleSeed(r int) uint64 { return b.o.seed + 7919*uint64(r) }

// setup builds the run's training corpora setupReps times and keeps the
// last copy.
func (b *bench) setup(work string) (*inputs, error) {
	var times []float64
	var in *inputs
	for i := 0; i < setupReps; i++ {
		if in != nil {
			os.RemoveAll(in.dir)
		}
		runtime.GC()
		began := time.Now()
		var err error
		in, err = b.setupOnce(filepath.Join(work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(began).Seconds())
	}
	b.corpusSetup = median(times)
	b.info["corpus_setup_s_each"] = times
	return in, nil
}

func vacuumCleaner() (gen.Category, error) {
	cat, ok := gen.CategoryByName("Vacuum Cleaner")
	if !ok {
		return cat, fmt.Errorf("category Vacuum Cleaner missing from the generator")
	}
	return cat, nil
}

func (b *bench) setupOnce(dir string) (*inputs, error) {
	cat, err := vacuumCleaner()
	if err != nil {
		return nil, err
	}
	in := &inputs{dir: dir}
	for r := 0; r < b.sp.cycles; r++ {
		s := b.cycleSeed(r)
		c := cycleInput{dir: filepath.Join(dir, fmt.Sprintf("corpus-%d", r))}
		c.base = gen.Generate(cat, gen.Options{Seed: s, Items: b.sp.items})
		w, err := corpus.NewWriter(c.dir, corpus.WriterOptions{
			Name: cat.Name, Lang: c.base.Lang, ShardSize: (b.sp.items + 3) / 4,
		})
		if err != nil {
			return nil, err
		}
		w.SetQueries(c.base.Queries)
		w.SetAliases(c.base.Aliases)
		if err := writeCorpus(w, c.base); err != nil {
			return nil, err
		}
		c.delta = gen.Generate(cat, gen.Options{Seed: s + 2, Items: b.sp.delta, IDOffset: b.sp.items})
		in.cycles = append(in.cycles, c)
	}
	return in, nil
}

// poolParts is how many independently seeded generator runs the held-out
// pool interleaves. One run draws all its pages from one set of twelve
// merchants, whose templates set page length; mixing several keeps the
// page mix, and so the per-page cost, alike from seed to seed.
const poolParts = 8

// heldOut generates n serving pages for load step `step` from seeds derived
// from the workload seed + 1, with product IDs far from the training
// corpora's and from every other step's (a step sends fewer than 2^17
// pages), pre-encoded as single-page POST /extract bodies.
func (b *bench) heldOut(step, n int) ([][]byte, error) {
	cat, err := vacuumCleaner()
	if err != nil {
		return nil, err
	}
	per := (n + poolParts - 1) / poolParts
	bodies := make([][]byte, per*poolParts)
	for k := 0; k < poolParts; k++ {
		part := gen.Generate(cat, gen.Options{
			Seed:     b.o.seed + 1 + 7919*uint64(step*poolParts+k),
			Items:    per,
			IDOffset: 1<<20 + step<<17 + k*per,
		})
		for i, p := range part.Pages {
			if bodies[i*poolParts+k], err = json.Marshal(serve.Request{ID: p.ID, HTML: p.HTML}); err != nil {
				return nil, err
			}
		}
	}
	return bodies, nil
}

// writeCorpus writes every page and truth judgment of c and closes w.
func writeCorpus(w *corpus.Writer, c *gen.Corpus) error {
	for _, p := range c.Pages {
		if err := w.WritePage(seed.Document{ID: p.ID, HTML: p.HTML}); err != nil {
			w.Close()
			return err
		}
	}
	for _, t := range c.Truth {
		if err := w.WriteTruth(t); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// measure runs the measured part of the workload: the training cycles,
// each followed by one round of the serving phases on a fleet started on
// the first cycle's bundle.
func (b *bench) measure(in *inputs) error {
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	bundlePath := filepath.Join(in.dir, "model.paeb")
	var srv *serving
	err := b.trainCycles(in, bundlePath, func() error {
		if srv == nil {
			var err error
			if srv, err = b.startServing(bundlePath); err != nil {
				return err
			}
		}
		return b.serveRound(srv)
	})
	if err != nil {
		if srv != nil {
			srv.close()
		}
		return err
	}
	if err := b.finishServing(srv); err != nil {
		return err
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	b.layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	b.layer["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	return nil
}

// bootstrapConfig is the paper's full system (the zero Config) at the
// workload's model and schedule, checkpointed as paepromote -train runs it.
func (b *bench) bootstrapConfig(ckpt string) core.Config {
	return core.Config{Model: b.sp.model, Iterations: b.sp.iterations, Checkpoint: ckpt}
}

// bootRun is one bootstrap (or retrain) and its encoded bundle.
type bootRun struct {
	res        *core.Result
	bundle     []byte
	secs       float64 // RunSource plus Result.Bundle() and the encode
	encodeSecs float64 // Result.Bundle() and the encode alone
}

// runBootstrap runs one bootstrap over the on-disk corpus and encodes its
// bundle, recording spans under parent (nil records none).
func (b *bench) runBootstrap(parent *obs.Span, dir string, cfg core.Config) (*bootRun, error) {
	r, err := corpus.Open(dir)
	if err != nil {
		return nil, err
	}
	src := r.Source()
	defer src.Close()
	out := &bootRun{}
	var buf bytes.Buffer
	runSecs, err := timed(parent, "core.run", func() error {
		var err error
		out.res, err = core.New(cfg).RunSource(b.ctx, core.Input{
			Source: src, Queries: r.Manifest.Queries, Lang: r.Manifest.Lang,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	out.encodeSecs, err = timed(parent, "bundle.encode", func() error {
		bnd, err := out.res.Bundle()
		if err != nil {
			return err
		}
		return bnd.Save(&buf)
	})
	out.secs = runSecs + out.encodeSecs
	if err != nil {
		return nil, err
	}
	out.bundle = buf.Bytes()
	b.attempted++
	if !out.res.StopReason.Completed() {
		b.failed++
		b.problem("bootstrap stopped early: %s", out.res.StopReason)
	}
	return out, nil
}

func triplesDigest(ts []triples.Triple) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, t := range ts {
		enc.Encode(t)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bytesDigest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// recordDigests checks a bootstrap's final triples and bundle bytes against
// every earlier run of this workload at this seed.
func (b *bench) recordDigests(name string, run *bootRun) {
	td, bd := triplesDigest(run.res.FinalTriples()), bytesDigest(run.bundle)
	b.info[name+"_triples_sha256"] = td
	b.info[name+"_bundle_sha256"] = bd
	for _, d := range []struct{ key, digest string }{{name + ".triples", td}, {name + ".bundle", bd}} {
		if err := b.digests.check(d.key, d.digest); err != nil {
			b.problem("%v", err)
		}
	}
}

// trainCycles runs the workload's bootstrap-then-retrain cycle once per
// training corpus, and after each cycle calls after; bootstrap_s and
// retrain_s are the medians over the cycles, precision and coverage the
// means, and peak_heap_mb the largest rise of the live heap within a cycle
// (the serving round between two cycles is left out of it). A traced run
// makes one traced cycle, after an untraced bootstrap of the same corpus
// that obs.overhead_ratio is measured against and whose digests must agree.
func (b *bench) trainCycles(in *inputs, bundlePath string, after func() error) error {
	var ref *bootRun
	if b.o.trace {
		var err error
		ref, err = b.runBootstrap(nil, in.cycles[0].dir, b.bootstrapConfig(filepath.Join(in.dir, "ckpt-ref")))
		if err != nil {
			return err
		}
		b.recordDigests("cycle0.bootstrap", ref)
	}
	var boots, retrains, precs, covs []float64
	var peak uint64
	for r, c := range in.cycles {
		runtime.GC()
		base := heapBytes()
		heap := startHeapSampler()
		res, err := b.cycle(r, c, filepath.Join(in.dir, fmt.Sprintf("ckpt-%d", r)), bundlePath)
		top := heap.Stop()
		if err != nil {
			return err
		}
		peak = max(peak, top-min(top, base))
		boots = append(boots, res.bootstrap)
		retrains = append(retrains, res.retrain)
		precs = append(precs, res.precision)
		covs = append(covs, res.coverage)
		if err := after(); err != nil {
			return err
		}
	}
	b.e2e["peak_heap_mb"] = metric{float64(peak) / (1 << 20), "MB"}
	b.e2e["bootstrap_s"] = metric{median(boots), "s"}
	b.e2e["retrain_s"] = metric{median(retrains), "s"}
	b.e2e["precision"] = metric{mean(precs), "%"}
	b.e2e["coverage"] = metric{mean(covs), "%"}
	b.info["bootstrap_s_each"] = boots
	b.info["retrain_s_each"] = retrains
	b.info["precision_each"] = precs
	b.info["coverage_each"] = covs
	if ref != nil {
		b.layer["obs.overhead_ratio"] = ratio(boots[0], ref.secs)
	}
	return nil
}

// cycleResult is one cycle's figures.
type cycleResult struct {
	bootstrap, retrain, precision, coverage float64
}

// cycle bootstraps corpus r with its checkpoint in ckpt, writes the first
// cycle's bundle for the fleet (and, traced, measures its layers), then
// appends the delta and retrains.
func (b *bench) cycle(r int, c cycleInput, ckpt, bundlePath string) (cycleResult, error) {
	var out cycleResult
	cfg := b.bootstrapConfig(ckpt)
	if b.o.trace {
		cfg.Obs = obs.New(obs.Options{})
	}
	span := b.root.Child("bootstrap")
	run, err := b.runBootstrap(span, c.dir, cfg)
	span.End(err)
	if err != nil {
		return out, err
	}
	out.bootstrap = run.secs
	b.recordDigests(fmt.Sprintf("cycle%d.bootstrap", r), run)
	final := run.res.FinalTriples()
	out.precision = eval.NewTruth(c.base).Judge(final).Precision()
	out.coverage = eval.Coverage(final, len(c.base.Pages))
	if r == 0 {
		if err := os.WriteFile(bundlePath, run.bundle, 0o644); err != nil {
			return out, err
		}
		if b.o.trace {
			if err := b.traceBootstrap(run, cfg.Obs, c.dir, bundlePath); err != nil {
				return out, err
			}
		}
	}
	out.retrain, err = b.retrain(r, c, ckpt)
	return out, err
}

// traceBootstrap measures the layers of the first cycle's bootstrap.
func (b *bench) traceBootstrap(run *bootRun, rec *obs.Recorder, corpusDir, bundlePath string) error {
	b.pipelineTree = rec.Snapshot()
	b.layer["bundle.encode_s"] = run.encodeSecs
	if err := b.bootstrapLayers(run.bundle, bundlePath); err != nil {
		return err
	}
	return b.replayIteration(corpusDir, run.res)
}

// retrain appends the delta pages with corpus.OpenAppend, then runs a
// one-iteration incremental re-bootstrap from the checkpoint. The timed part
// is the append, the retrain and its bundle encode.
func (b *bench) retrain(r int, c cycleInput, ckpt string) (float64, error) {
	span := b.root.Child("retrain")
	defer span.End(nil)
	began := time.Now()
	appendSecs, err := timed(span, "corpus.append", func() error {
		w, err := corpus.OpenAppend(c.dir)
		if err != nil {
			return err
		}
		w.MergeQueries(c.delta.Queries)
		return writeCorpus(w, c.delta)
	})
	if err != nil {
		return 0, err
	}
	cfg := b.bootstrapConfig(ckpt)
	cfg.Iterations = 1
	cfg.Incremental = true
	run, err := b.runBootstrap(span, c.dir, cfg)
	if err != nil {
		return 0, err
	}
	secs := time.Since(began).Seconds()
	if !run.res.WarmStart {
		b.problem("incremental retrain did not warm-start from the checkpoint")
	}
	b.recordDigests(fmt.Sprintf("cycle%d.retrain", r), run)
	b.layer["corpus.append_s"] = appendSecs
	b.layer["core.shards_reused"] = float64(run.res.ShardsReused)
	b.layer["core.shards_recomputed"] = float64(run.res.ShardsRecomputed)
	return secs, nil
}
