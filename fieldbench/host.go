package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// hostInfo is recorded with every result so two runs can be compared knowing
// what they ran on and what they ran.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       uint64 `json:"seed"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func newHostInfo(root string, seed uint64) hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		Commit:     gitCommit(root),
		Source:     sourceDigest(root),
	}
}

// gitCommit reads HEAD without running git. A checkout that is not a git
// repository reports "none"; the source digest identifies the code then.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == name {
			return f[0]
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root (skipping
// hidden directories, which hold build output), in path order.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestStore remembers the output digests of every bootstrap run per
// (source digest, Go version, workload, seed), so all runs of a workload at
// one seed — in this process and in earlier processes of the same code —
// must agree.
type digestStore struct {
	path string
	seen map[string]string
}

func openDigestStore(dir, key string) *digestStore {
	s := &digestStore{path: filepath.Join(dir, key+".json"), seen: map[string]string{}}
	if b, err := os.ReadFile(s.path); err == nil {
		_ = json.Unmarshal(b, &s.seen)
	}
	return s
}

// check records name=digest, or returns an error when an earlier run
// recorded a different digest under the same name.
func (s *digestStore) check(name, digest string) error {
	if prev, ok := s.seen[name]; ok && prev != digest {
		return fmt.Errorf("%s digest %.16s differs from an earlier run's %.16s at the same seed", name, digest, prev)
	}
	s.seen[name] = digest
	return nil
}

func (s *digestStore) save() error {
	if err := os.MkdirAll(filepath.Dir(s.path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s.seen, "", "  ")
	if err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path)
}

// heapSampler tracks the peak live heap — the bytes the garbage collector
// found reachable at the end of a cycle — while it runs, reading
// runtime/metrics (no stop-the-world) every few milliseconds. Live bytes,
// unlike the heap's momentary size, do not depend on when a cycle happened
// to start, so the peak repeats from run to run.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/gc/heap/live:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: heapBytes()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				if b := heapBytes(); b > h.peak {
					h.peak = b
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.done.Wait()
	if b := heapBytes(); b > h.peak {
		h.peak = b
	}
	return h.peak
}

// warmCPUs keeps every CPU busy for d. On the 2-CPU virtual machines this
// benchmark was tuned on, a process runs at about half speed for its first
// half second after the machine idled; set-up is timed after that.
func warmCPUs(d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for time.Now().Before(deadline) {
				sha256.Sum256(buf)
			}
		}()
	}
	wg.Wait()
}
