// Package bootstrap pulls a warm-start store from a live peer: a
// joining moqod node started with -bootstrap-peer streams the donor's
// segment bytes over HTTP (the donor's /admin/store export endpoints,
// backed by store.ExportManifest/ReadSegment) into its own store
// directory before the service opens it, so the joiner's first session
// warm-starts from the donor's plan state instead of an empty disk.
//
// The transfer is defensive end to end (DESIGN.md D16):
//
//   - Every chunk is verified frame-by-frame (store.ValidFrames — the
//     same CRC32C envelope the startup scan trusts) before a single
//     byte reaches the staging files; a joiner never indexes an
//     unverified or partial record.
//   - Fetches are resumable: a stream that dies mid-body keeps its
//     verified prefix and the next attempt resumes from that offset,
//     with jittered exponential backoff and a per-attempt timeout.
//   - A donor compaction mid-transfer (HTTP 409/410, store's
//     ErrExportStale) wipes the staging area and restarts from a fresh
//     manifest — bytes from two export generations never mix.
//   - Verified segments are staged under Dir/bootstrap-tmp and only
//     renamed into the store directory once every segment completed,
//     so a failed pull leaves the directory exactly as it found it and
//     the caller degrades to a cold start.
package bootstrap

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/eventlog"
	"repro/internal/faultfs"
	"repro/internal/store"
)

// ErrLocalState reports that the store directory already holds segment
// files: the node has its own warm state, and overwriting it with a
// peer's would silently discard locally persisted snapshots. The
// caller should open the local store instead (mode "local").
var ErrLocalState = errors.New("bootstrap: store directory already has local segments")

// errStaleGen is the client-side mirror of store.ErrExportStale: the
// donor compacted under the transfer.
var errStaleGen = errors.New("bootstrap: donor export generation superseded")

// tmpDirName is the staging subdirectory inside the store directory.
// The store scan skips it (directories are never segment files), so a
// crash mid-pull leaves nothing a later open could misread.
const tmpDirName = "bootstrap-tmp"

// maxManifestRestarts bounds how many donor compactions a single Pull
// rides out before giving up (each restart re-transfers everything).
const maxManifestRestarts = 2

// Options configures a Pull; Peer, Dir and CfgEcho are required.
type Options struct {
	// Peer is the donor's address — host:port or a full http:// base URL.
	Peer string
	// Dir is the joiner's store directory; created if missing.
	Dir string
	// CfgEcho is the joiner's configuration fingerprint. A donor whose
	// manifest echoes a different configuration is rejected before any
	// bytes move: its records could never restore here.
	CfgEcho string
	// Client is the HTTP client; nil uses a default. Per-request
	// deadlines come from PerAttemptTimeout, not the client.
	Client *http.Client
	// PerAttemptTimeout bounds each manifest or segment fetch; defaults
	// to 10s.
	PerAttemptTimeout time.Duration
	// Retries is the per-segment fetch attempt budget; defaults to 5.
	Retries int
	// Backoff is the initial retry delay, doubled (with ±50% jitter) per
	// failed attempt up to a 5s cap; defaults to 200ms.
	Backoff time.Duration
	// FS is the filesystem the staging files go through; nil uses the
	// real one. Tests inject faultfs.Injector to break writes/renames.
	FS faultfs.FS
	// TransferFault, when set, intercepts every fetched segment body
	// before verification: the transfer-path fault seam. It may mutate
	// the bytes (checksum flip) or return a prefix plus an error (donor
	// killed mid-stream); returned bytes are still frame-verified, so a
	// fault can corrupt the transfer but never the store.
	TransferFault func(seq, off int64, body []byte) ([]byte, error)
	// Rand drives retry jitter; nil uses a fixed-seed source
	// (de-synchronization only needs spread, not secrecy).
	Rand *rand.Rand
	// Events, when set, receives the progress as structured events
	// (subsystem "bootstrap"); nil disables.
	Events *eventlog.Log
}

func (o *Options) defaults() error {
	if o.Peer == "" || o.Dir == "" || o.CfgEcho == "" {
		return fmt.Errorf("bootstrap: Peer, Dir and CfgEcho are required")
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.PerAttemptTimeout <= 0 {
		o.PerAttemptTimeout = 10 * time.Second
	}
	if o.Retries <= 0 {
		o.Retries = 5
	}
	if o.Backoff <= 0 {
		o.Backoff = 200 * time.Millisecond
	}
	if o.FS == nil {
		o.FS = faultfs.OS{}
	}
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	return nil
}

// Result summarizes a successful pull (and, on failure, how far the
// attempt got — moqod surfaces the counters either way).
type Result struct {
	// Generation is the donor export generation the pull completed under.
	Generation uint64
	// Segments, Frames and Bytes count what was verified and installed.
	Segments int
	Frames   int
	Bytes    int64
	// Attempts counts segment fetches issued; Resumed counts the subset
	// that continued from a previously verified offset; Restarts counts
	// full restarts forced by donor compactions.
	Attempts, Resumed, Restarts int
}

// puller carries one Pull's state.
type puller struct {
	opts Options
	base string
	res  Result
}

// Pull streams the donor's store into opts.Dir. On success the
// directory holds the donor's segments (verified frame by frame) and
// the next store.Open replays them; on any error the directory is left
// as Pull found it — the caller falls back to a cold start. A
// directory that already has segments fails fast with ErrLocalState.
func Pull(opts Options) (Result, error) {
	if err := opts.defaults(); err != nil {
		return Result{}, err
	}
	p := &puller{opts: opts, base: baseURL(opts.Peer)}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return p.res, fmt.Errorf("bootstrap: %w", err)
	}
	entries, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return p.res, fmt.Errorf("bootstrap: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".moqs") {
			return p.res, ErrLocalState
		}
	}
	tmp := filepath.Join(opts.Dir, tmpDirName)
	p.wipeTmp(tmp) // a crashed earlier pull may have left staging files
	if err := opts.FS.MkdirAll(tmp, 0o755); err != nil {
		return p.res, fmt.Errorf("bootstrap: %w", err)
	}

	var pulled []string // staged segment file names, in install order
	for restart := 0; ; restart++ {
		var man store.Manifest
		man, err = p.fetchManifest()
		if err != nil {
			break
		}
		if man.CfgEcho != opts.CfgEcho {
			err = fmt.Errorf("bootstrap: donor config echo %q differs from ours %q", man.CfgEcho, opts.CfgEcho)
			break
		}
		p.res.Generation = man.Generation
		pulled, err = p.pullSegments(tmp, man)
		if err == nil || !errors.Is(err, errStaleGen) {
			break
		}
		// The donor compacted mid-transfer: every staged byte may belong
		// to a deleted generation. Start over from a fresh manifest.
		if restart >= maxManifestRestarts {
			err = fmt.Errorf("bootstrap: donor compacted %d times mid-transfer: %w", restart+1, err)
			break
		}
		p.res.Restarts++
		p.res.Segments, p.res.Frames, p.res.Bytes = 0, 0, 0
		p.wipeTmp(tmp)
		if err := opts.FS.MkdirAll(tmp, 0o755); err != nil {
			return p.res, fmt.Errorf("bootstrap: %w", err)
		}
		opts.Events.Emit(eventlog.LevelWarn, "bootstrap", "donor compacted mid-transfer, restarting",
			eventlog.F("peer", opts.Peer),
			eventlog.Fint("restart", int64(restart+1)))
	}
	if err != nil {
		p.wipeTmp(tmp)
		return p.res, err
	}

	// Install: every segment verified in full; rename each staged file
	// into the store directory. Each file holds only whole verified
	// frames, so even a rename sequence interrupted by a crash leaves
	// nothing the next scan could misindex.
	for _, name := range pulled {
		if rerr := opts.FS.Rename(filepath.Join(tmp, name), filepath.Join(opts.Dir, name)); rerr != nil {
			p.wipeTmp(tmp)
			return p.res, fmt.Errorf("bootstrap: installing %s: %w", name, rerr)
		}
	}
	p.wipeTmp(tmp)
	opts.Events.Emit(eventlog.LevelInfo, "bootstrap", "pull complete",
		eventlog.F("peer", opts.Peer),
		eventlog.Fint("segments", int64(p.res.Segments)),
		eventlog.Fint("frames", int64(p.res.Frames)),
		eventlog.Fint("bytes", p.res.Bytes),
		eventlog.Fint("generation", int64(p.res.Generation)),
		eventlog.Fint("attempts", int64(p.res.Attempts)))
	return p.res, nil
}

// pullSegments transfers every manifest segment into tmp, returning
// the staged file names in order.
func (p *puller) pullSegments(tmp string, man store.Manifest) ([]string, error) {
	names := make([]string, 0, len(man.Segments))
	for _, seg := range man.Segments {
		frames, err := p.pullSegment(tmp, man.Generation, seg)
		if err != nil {
			return nil, err
		}
		p.res.Segments++
		p.res.Frames += frames
		p.res.Bytes += seg.Size
		names = append(names, store.SegmentFileName(seg.Seq))
	}
	return names, nil
}

// pullSegment transfers one segment with resume and retry: each
// attempt fetches from the verified offset, the response body passes
// through the fault seam, and only the longest whole-frame prefix is
// appended to the staging file.
func (p *puller) pullSegment(tmp string, gen uint64, seg store.SegmentInfo) (frames int, err error) {
	path := filepath.Join(tmp, store.SegmentFileName(seg.Seq))
	f, err := p.opts.FS.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("bootstrap: %w", err)
	}
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	var off int64
	backoff := p.opts.Backoff
	var lastErr error
	for attempt := 0; attempt < p.opts.Retries; attempt++ {
		if attempt > 0 {
			p.sleep(backoff)
			backoff *= 2
			if max := 5 * time.Second; backoff > max {
				backoff = max
			}
		}
		p.res.Attempts++
		if off > 0 {
			p.res.Resumed++
		}
		body, ferr := p.fetchSegment(seg.Seq, gen, off)
		if errors.Is(ferr, errStaleGen) {
			return frames, ferr
		}
		if p.opts.TransferFault != nil && len(body) > 0 {
			var terr error
			body, terr = p.opts.TransferFault(seg.Seq, off, body)
			if ferr == nil {
				ferr = terr
			}
		}
		// Verify whatever arrived — a torn body's valid prefix still
		// advances the resume offset — and persist only whole frames.
		if len(body) > 0 {
			valid, n := store.ValidFrames(body)
			if valid > seg.Size-off {
				// More valid bytes than the manifest promised: the donor
				// appended past the export view. Keep only the view.
				valid = seg.Size - off
				_, n = store.ValidFrames(body[:valid])
			}
			if valid > 0 {
				if _, werr := f.Write(body[:valid]); werr != nil {
					return frames, fmt.Errorf("bootstrap: staging segment %d: %w", seg.Seq, werr)
				}
				off += valid
				frames += n
			}
			if ferr == nil && valid < int64(len(body)) {
				ferr = fmt.Errorf("bootstrap: segment %d: %d unverifiable bytes at offset %d",
					seg.Seq, int64(len(body))-valid, off)
			}
		}
		if off >= seg.Size {
			if serr := f.Sync(); serr != nil {
				return frames, fmt.Errorf("bootstrap: syncing segment %d: %w", seg.Seq, serr)
			}
			err = f.Close()
			f = nil
			if err != nil {
				return frames, fmt.Errorf("bootstrap: closing segment %d: %w", seg.Seq, err)
			}
			return frames, nil
		}
		if ferr == nil {
			ferr = fmt.Errorf("bootstrap: segment %d: short body at offset %d/%d", seg.Seq, off, seg.Size)
		}
		lastErr = ferr
		p.opts.Events.Emit(eventlog.LevelWarn, "bootstrap", "segment attempt failed",
			eventlog.Fint("segment", seg.Seq),
			eventlog.Fint("attempt", int64(attempt+1)),
			eventlog.Ferr(ferr),
			eventlog.Fint("verified_bytes", off),
			eventlog.Fint("total_bytes", seg.Size))
	}
	return frames, fmt.Errorf("bootstrap: segment %d failed after %d attempts: %w", seg.Seq, p.opts.Retries, lastErr)
}

// fetchManifest GETs and decodes the donor's export manifest.
func (p *puller) fetchManifest() (store.Manifest, error) {
	var man store.Manifest
	body, err := p.get(p.base + "/admin/store/manifest")
	if err != nil {
		return man, fmt.Errorf("bootstrap: fetching manifest: %w", err)
	}
	if err := json.Unmarshal(body, &man); err != nil {
		return man, fmt.Errorf("bootstrap: decoding manifest: %w", err)
	}
	return man, nil
}

// fetchSegment GETs one segment's bytes from off under the manifest
// generation. A partial body is returned alongside its read error so
// the caller can keep the verified prefix.
func (p *puller) fetchSegment(seq int64, gen uint64, off int64) ([]byte, error) {
	url := fmt.Sprintf("%s/admin/store/segments/%d?gen=%d&off=%d", p.base, seq, gen, off)
	ctx, cancel := context.WithTimeout(context.Background(), p.opts.PerAttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict, http.StatusGone:
		return nil, errStaleGen
	default:
		return nil, fmt.Errorf("peer returned %s", resp.Status)
	}
	body, rerr := io.ReadAll(resp.Body)
	return body, rerr
}

// get GETs url with the per-attempt timeout and returns the full body.
func (p *puller) get(url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.opts.PerAttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer returned %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// sleep waits d with ±50% jitter.
func (p *puller) sleep(d time.Duration) {
	if d <= 1 {
		return
	}
	time.Sleep(d/2 + time.Duration(p.opts.Rand.Int63n(int64(d))))
}

// wipeTmp best-effort removes the staging directory and its files.
func (p *puller) wipeTmp(tmp string) {
	entries, err := p.opts.FS.ReadDir(tmp)
	if err == nil {
		for _, e := range entries {
			_ = p.opts.FS.Remove(filepath.Join(tmp, e.Name()))
		}
	}
	_ = p.opts.FS.Remove(tmp)
}

// baseURL normalizes a peer address to an http base URL without a
// trailing slash.
func baseURL(peer string) string {
	if !strings.Contains(peer, "://") {
		peer = "http://" + peer
	}
	return strings.TrimSuffix(peer, "/")
}
