package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"extrareq/internal/obs"
)

// A closed scheduler must reject work with the typed sentinel instead of
// panicking on the closed pool — servers race Close against late requests
// during shutdown.
func TestRunAfterCloseReturnsErrClosed(t *testing.T) {
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if !s.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	req := Request{App: testApp(t), Grid: testGrid()}
	if _, err := s.Run(context.Background(), req); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrClosed", err)
	}
}

func TestCloseIdempotent(t *testing.T) {
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // second call must not panic or deadlock
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Close() }()
	}
	wg.Wait()
}

// A disk-store write failure must degrade the scheduler to memory-only
// caching — counted and warned about, but never surfaced to the request.
func TestDiskWriteFailureDegradesToMemoryOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var warnings []string
	logf := func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	s, err := New(Options{Workers: 2, Dir: dir, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Break the store out from under the scheduler: replace the cache
	// directory with a regular file so CreateTemp fails (works even as
	// root, where permission bits would not).
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	req := Request{App: testApp(t), Grid: testGrid(), Metrics: reg}
	out, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("Run with broken disk store: err = %v, want nil (degrade, not fail)", err)
	}
	if out == nil || out.Campaign == nil {
		t.Fatal("Run with broken disk store returned no campaign")
	}
	st := s.Stats()
	if st.DiskErrors != 1 {
		t.Errorf("Stats.DiskErrors = %d, want 1", st.DiskErrors)
	}
	if got := reg.Snapshot().Counters[MetricCacheDiskError]; got != 1 {
		t.Errorf("%s counter = %d, want 1", MetricCacheDiskError, got)
	}
	if len(warnings) != 1 {
		t.Fatalf("logged %d warnings (%q), want exactly 1", len(warnings), warnings)
	}

	// Degraded, not broken: repeats are served from the in-memory cache,
	// byte-identical, with no further disk attempts or warnings.
	warm, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("warm run after degrade: %v", err)
	}
	if !warm.CacheHit {
		t.Error("warm run after degrade was not a memory cache hit")
	}
	if !bytes.Equal(mustJSON(t, out.Campaign), mustJSON(t, warm.Campaign)) {
		t.Error("memory hit after degrade is not byte-identical")
	}
	if st := s.Stats(); st.DiskErrors != 1 {
		t.Errorf("DiskErrors after warm run = %d, want still 1", st.DiskErrors)
	}
	if len(warnings) != 1 {
		t.Errorf("warned %d times, want exactly once", len(warnings))
	}

	// A fresh (distinct) campaign must also succeed without touching disk.
	req2 := req
	req2.Grid.Seed = 8
	if _, err := s.Run(context.Background(), req2); err != nil {
		t.Fatalf("distinct run after degrade: %v", err)
	}
	if st := s.Stats(); st.DiskErrors != 1 {
		t.Errorf("DiskErrors after distinct run = %d, want still 1 (disk skipped)", st.DiskErrors)
	}
}

// Lookup serves stored bytes without running anything, from memory or disk.
func TestSchedulerLookup(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{App: testApp(t), Grid: testGrid()}
	key := ComputeKey(req)
	if _, ok := s.Lookup(context.Background(), key); ok {
		t.Fatal("Lookup hit before anything ran")
	}
	out, err := s.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	data, ok := s.Lookup(context.Background(), key)
	if !ok {
		t.Fatal("Lookup miss after Run")
	}
	c, rep, err := Decode(key, data)
	if err != nil {
		t.Fatalf("Decode(Lookup bytes): %v", err)
	}
	if !bytes.Equal(mustJSON(t, c), mustJSON(t, out.Campaign)) {
		t.Error("decoded campaign differs from Run outcome")
	}
	if rep == nil {
		t.Error("decoded report is nil")
	}
	if err := s.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	s.Close()

	// A fresh scheduler over the same directory serves the entry from disk.
	s2, err := New(Options{Workers: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	disk, ok := s2.Lookup(context.Background(), key)
	if !ok {
		t.Fatal("Lookup miss from disk in fresh scheduler")
	}
	if !bytes.Equal(disk, data) {
		t.Error("disk Lookup bytes differ from memory Lookup bytes")
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	req := Request{App: testApp(t), Grid: testGrid()}
	key := ComputeKey(req)
	back, err := ParseKey(key.String())
	if err != nil {
		t.Fatalf("ParseKey(%q): %v", key, err)
	}
	if back != key {
		t.Error("ParseKey did not round-trip")
	}
	for _, bad := range []string{"", "xyz", key.String()[:10], key.String() + "00"} {
		if _, err := ParseKey(bad); err == nil {
			t.Errorf("ParseKey(%q) accepted a malformed key", bad)
		}
	}
}
