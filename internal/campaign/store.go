package campaign

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"time"

	"extrareq/internal/workload"
)

// Store is the persistence seam of the Scheduler: a content-addressed blob
// store keyed by campaign and point keys. Every method takes the context
// of the request (or drain) on whose behalf it runs, so a store backed by
// a network — RemoteStore, or TieredStore over it — inherits the caller's
// deadline and cancellation instead of stalling a campaign on a dead
// remote. Purely local implementations (DiskStore) may ignore the context.
//
// Implementations must be safe for concurrent use from multiple
// goroutines, tolerate concurrent writers of the same key (keys are
// content hashes, so racing writers carry identical bytes), and degrade
// unreadable entries to ok=false misses rather than errors — the Scheduler
// re-measures and overwrites on a miss. DiskStore is the default
// implementation; its shared-directory layout (one file per key, atomic
// rename) is additionally safe for multiple *processes* pointed at one
// directory, which is how N reqserve/CLI instances shard a campaign's
// points between them. RemoteStore shards without any shared filesystem
// by speaking the reqserve /v1/points protocol.
type Store interface {
	// Load returns the stored bytes for k, or ok=false when the entry is
	// absent, unreadable, or unreachable before ctx's deadline.
	Load(ctx context.Context, k Key) (data []byte, ok bool)
	// Store persists the entry under k, atomically with respect to
	// concurrent Loads of the same key. Implementations that cannot
	// persist durably right now may degrade (drop or defer the write) and
	// still return nil; a non-nil error tells the Scheduler the store is
	// permanently broken, which latches writes off for its lifetime.
	Store(ctx context.Context, k Key, data []byte) error
	// Sync forces completed writes durable — including flushing any
	// write-behind queue — before returning; drain paths call it once
	// more before exit.
	Sync(ctx context.Context) error
}

// StoreStatus is a point-in-time health view of a Scheduler's persistence
// tier, exposed to operators through reqserve's /readyz so "degraded but
// serving" is distinguishable from "draining".
type StoreStatus struct {
	// Kind names the tier: "memory" (no store), "disk", "remote", or
	// "tiered".
	Kind string `json:"kind"`
	// WritesDegraded reports that the Scheduler latched store writes off
	// after a write failure (reads stay live).
	WritesDegraded bool `json:"writes_degraded,omitempty"`
	// BreakerOpen reports that the remote tier's circuit breaker is open:
	// remote loads degrade to misses and remote writes are dropped until
	// the remote recovers.
	BreakerOpen bool `json:"breaker_open,omitempty"`
}

// Degraded reports whether any tier is operating below full capability.
func (s StoreStatus) Degraded() bool { return s.WritesDegraded || s.BreakerOpen }

// StatusReporter is the optional health interface of a Store. Stores with
// runtime failure modes (RemoteStore, TieredStore) implement it; the
// Scheduler folds the result into its own StoreStatus.
type StatusReporter interface {
	Status() StoreStatus
}

// Cache entry encoding. A single JSON document carries both the campaign
// and its report, prefixed with the format version and its own key so a
// load can prove the file is what the name claims. Memory and disk store
// the same bytes; every cache hit — warm or cold — serves objects decoded
// from those bytes (a memory hit clones the tier's one decode of them), so
// a hit can only ever produce what a fresh run marshals to.
type entry struct {
	Version  int                      `json:"version"`
	Key      string                   `json:"key"`
	App      string                   `json:"app"`
	Campaign *workload.Campaign       `json:"campaign"`
	Report   *workload.CampaignReport `json:"report"`
}

// EncodeEntry marshals a campaign + report into the cache entry
// representation under key — the exact bytes Decode and ValidateEntry
// accept. Scheduler.Run stores its finished campaigns this way, and the
// adaptive engine, which assembles campaigns outside Run, publishes its
// results through PutEntry in the same form.
func EncodeEntry(key Key, app string, c *workload.Campaign, rep *workload.CampaignReport) ([]byte, error) {
	return json.Marshal(&entry{
		Version:  KeyVersion,
		Key:      key.String(),
		App:      app,
		Campaign: c,
		Report:   rep,
	})
}

// pointEntry is the cache representation of one measured (p, n)
// configuration: the sample (zero for quarantined configurations) and the
// full outcome (attempts, errors, quarantine), so an assembled campaign
// report is byte-identical to one that measured the point itself. Like the
// campaign entry it embeds the format version and its own key, so a load
// can prove the file is what the name claims.
type pointEntry struct {
	Version int                    `json:"version"`
	Key     string                 `json:"key"`
	App     string                 `json:"app"`
	Sample  workload.Sample        `json:"sample"`
	Outcome workload.ConfigOutcome `json:"outcome"`
}

// encodePoint marshals one measured configuration into its cache
// representation.
func encodePoint(key Key, app string, s workload.Sample, out workload.ConfigOutcome) ([]byte, error) {
	return json.Marshal(&pointEntry{
		Version: KeyVersion,
		Key:     key.String(),
		App:     app,
		Sample:  s,
		Outcome: out,
	})
}

// decodePoint unmarshals a point entry and validates it against the key
// that addressed it; any mismatch is treated as a miss by the Scheduler,
// which then measures the point afresh.
func decodePoint(key Key, data []byte) (workload.Sample, workload.ConfigOutcome, error) {
	var e pointEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return workload.Sample{}, workload.ConfigOutcome{}, fmt.Errorf("campaign: corrupt point entry: %w", err)
	}
	if e.Version != KeyVersion {
		return workload.Sample{}, workload.ConfigOutcome{}, fmt.Errorf("campaign: point entry version %d, want %d", e.Version, KeyVersion)
	}
	if e.Key != key.String() {
		return workload.Sample{}, workload.ConfigOutcome{}, fmt.Errorf("campaign: point entry key %s does not match %s", e.Key, key)
	}
	if !e.Outcome.Quarantined && e.Sample.Values == nil {
		return workload.Sample{}, workload.ConfigOutcome{}, fmt.Errorf("campaign: point entry missing sample values")
	}
	return e.Sample, e.Outcome, nil
}

// Decode unmarshals a marshaled cache entry (as returned by
// Scheduler.Lookup) and validates it against the key that addressed it.
// Any mismatch (format drift, truncation, a file renamed by hand) is an
// error; callers treat that as a cache miss, never a failure.
func Decode(key Key, data []byte) (*workload.Campaign, *workload.CampaignReport, error) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, nil, fmt.Errorf("campaign: corrupt cache entry: %w", err)
	}
	if e.Version != KeyVersion {
		return nil, nil, fmt.Errorf("campaign: cache entry version %d, want %d", e.Version, KeyVersion)
	}
	if e.Key != key.String() {
		return nil, nil, fmt.Errorf("campaign: cache entry key %s does not match %s", e.Key, key)
	}
	if e.Campaign == nil || e.Report == nil {
		return nil, nil, fmt.Errorf("campaign: cache entry missing campaign or report")
	}
	return e.Campaign, e.Report, nil
}

// EntryKind classifies a validated cache entry.
type EntryKind int

const (
	// PointEntry is one measured (p, n) configuration.
	PointEntry EntryKind = iota
	// CampaignEntry is a whole finished campaign with its report.
	CampaignEntry
)

// ValidateEntry checks that data is a well-formed cache entry — point or
// campaign — whose embedded key matches k and whose format version is
// current. Servers accepting uploads on the /v1/points endpoint use it to
// keep garbage and stale-version entries out of a shared store: a peer
// running an older KeyVersion is rejected here instead of poisoning
// every later load (which would tolerate but re-measure the entry
// anyway). It returns what kind of entry the bytes carry.
func ValidateEntry(k Key, data []byte) (EntryKind, error) {
	if _, _, err := decodePoint(k, data); err == nil {
		return PointEntry, nil
	}
	if _, _, err := Decode(k, data); err == nil {
		return CampaignEntry, nil
	}
	// Re-run the point decode for its error message: both decoders agree
	// on version/key mismatches, which are the interesting rejections.
	_, _, perr := decodePoint(k, data)
	return 0, perr
}

// DiskStore persists cache entries as one JSON file per key under a
// directory. Writes go through a temp file in the same directory followed
// by an atomic rename, so a crash can leave stale temp files but never a
// half-written entry; loads of files that fail to decode are treated as
// misses by the Scheduler, which then overwrites them with a fresh entry.
//
// The layout is safe for any number of writer processes sharing one
// directory: every entry is keyed by a content hash, so two processes
// racing on the same key rename byte-identical files over each other, and
// readers only ever observe complete entries. Point entries published
// mid-campaign (Scheduler assembly) land here one file at a time, which is
// what lets concurrent processes shard one campaign's points.
type DiskStore struct {
	dir string
}

// tmpPattern matches the temp files Store creates ("." + 64-hex key +
// ".tmp-" + CreateTemp's random suffix). OpenDiskStore reaps stale
// matches: a crash between CreateTemp and rename leaves them behind, and
// nothing else ever removes them from a long-lived cache directory.
var tmpPattern = regexp.MustCompile(`^\.[0-9a-f]{64}\.tmp-[0-9]+$`)

// tmpReapAge is how old a temp file must be before OpenDiskStore removes
// it. A healthy writer holds a temp file for milliseconds (write, fsync,
// rename), so anything this old is wreckage from a crash — while a
// freshly created temp may belong to a live writer process sharing the
// directory, whose rename must not be sabotaged by a sweeping opener. A
// variable so tests can reap immediately.
var tmpReapAge = time.Hour

// OpenDiskStore creates dir (and parents) if needed, sweeps stale temp
// files left by crashed writers, and returns the store. The sweep removes
// only files matching the store's own temp-name pattern and older than
// tmpReapAge; entries, unrelated files, and temps a live writer process
// may still own are never touched. Sweep failures are ignored — reaping
// is hygiene, not correctness.
func OpenDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: cache dir: %w", err)
	}
	if names, err := os.ReadDir(dir); err == nil {
		cutoff := time.Now().Add(-tmpReapAge)
		for _, de := range names {
			if de.IsDir() || !tmpPattern.MatchString(de.Name()) {
				continue
			}
			if info, err := de.Info(); err == nil && info.ModTime().Before(cutoff) {
				os.Remove(filepath.Join(dir, de.Name()))
			}
		}
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *DiskStore) Dir() string { return s.dir }

// Status reports the disk tier. The Scheduler overlays its own
// write-degradation latch; the store itself has no further state.
func (s *DiskStore) Status() StoreStatus { return StoreStatus{Kind: "disk"} }

func (s *DiskStore) path(k Key) string {
	return filepath.Join(s.dir, k.String()+".json")
}

// Load returns the stored bytes for k, or ok=false if the entry does not
// exist or cannot be read. Validation of the bytes is the caller's job
// (decode), so an unreadable or corrupt file degrades to a miss. Local
// reads are fast and uncancellable mid-syscall, so ctx is ignored.
func (s *DiskStore) Load(_ context.Context, k Key) (data []byte, ok bool) {
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Store writes the entry atomically and durably: temp file, fsync, rename,
// fsync of the parent directory. Rename within one directory is atomic on
// POSIX, so concurrent writers of the same key race benignly — both write
// identical bytes (the key is a content hash) and the loser's rename just
// replaces them. The two fsyncs matter to a long-lived server: without
// them a machine crash shortly after the rename can leave a zero-length or
// unlinked entry, which the tolerant loader would treat as a miss but
// which silently throws away a measured campaign.
func (s *DiskStore) Store(ctx context.Context, k Key, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "."+k.String()+".tmp-*")
	if err != nil {
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), s.path(k)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("campaign: cache write: %w", err)
	}
	if err := s.Sync(ctx); err != nil {
		return err
	}
	return nil
}

// Sync fsyncs the store directory itself, making completed renames
// durable. Store calls it after every write; drain paths call it once more
// through Scheduler.Flush before exit.
func (s *DiskStore) Sync(_ context.Context) error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("campaign: cache dir sync: %w", err)
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr == nil {
		serr = cerr
	}
	if serr != nil {
		return fmt.Errorf("campaign: cache dir sync: %w", serr)
	}
	return nil
}

// lru is a small mutex-guarded LRU over marshaled cache entries. Every
// item keeps its bytes, which Lookup, LookupEntry and peers serve. A
// campaign item also keeps its hitForm once a hit has decoded it, so later
// hits skip JSON in both directions; they still get fresh objects, cloned
// from the form, never the form's own.
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[Key]*list.Element
}

type lruItem struct {
	key  Key
	data []byte
	hit  *hitForm // nil for point entries and until a hit decodes data
}

// hitForm is a campaign entry decoded once for the memory tier: the tier's
// private campaign and report, which are only ever cloned, and the shared
// body of a hit on them (EncodeOutcome with CacheHit set and the whole
// grid of reused configurations).
type hitForm struct {
	campaign *workload.Campaign
	report   *workload.CampaignReport
	reused   int
	body     []byte
}

// outcome is a hit's Outcome over c and rep, without the body.
func (h *hitForm) outcome(key Key, c *workload.Campaign, rep *workload.CampaignReport) *Outcome {
	return &Outcome{Campaign: c, Report: rep, Key: key, CacheHit: true, PointsReused: h.reused}
}

func newLRU(capacity int) *lru {
	return &lru{
		cap:   capacity,
		order: list.New(),
		items: make(map[Key]*list.Element),
	}
}

func (c *lru) get(k Key) ([]byte, bool) {
	data, _, ok := c.getHit(k)
	return data, ok
}

// getHit returns k's bytes and, once decoded, their hitForm.
func (c *lru) getHit(k Key) ([]byte, *hitForm, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, nil, false
	}
	c.order.MoveToFront(el)
	it := el.Value.(*lruItem)
	return it.data, it.hit, true
}

// put stores data under k. Re-putting the bytes an item already holds
// keeps its decoded form; different bytes drop it.
func (c *lru) put(k Key, data []byte) { c.putHit(k, data, nil) }

// putHit stores data under k with h as its decoded form and returns the
// form the item now holds: an item that already holds these bytes keeps
// the form it has, if any.
func (c *lru) putHit(k Key, data []byte, h *hitForm) *hitForm {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		it := el.Value.(*lruItem)
		if it.hit == nil || !bytes.Equal(it.data, data) {
			it.hit = h
		}
		it.data = data
		c.order.MoveToFront(el)
		return it.hit
	}
	c.items[k] = c.order.PushFront(&lruItem{key: k, data: data, hit: h})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
	}
	return h
}

// attach gives k's item h as the decoded form of data, unless the item
// has been evicted or now holds other bytes, and returns the form to serve:
// the item's own when a concurrent first hit attached one first, so every
// hit on one item shares one body.
func (c *lru) attach(k Key, data []byte, h *hitForm) *hitForm {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return h
	}
	it := el.Value.(*lruItem)
	if !bytes.Equal(it.data, data) {
		return h
	}
	if it.hit == nil {
		it.hit = h
	}
	return it.hit
}

func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
