package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Range is a half-open [Lo, Hi) slice of a campaign's expanded run indices.
// Campaigns shard across processes by range: each worker process executes
// one range and checkpoints into a shared directory, and MergeCheckpoints
// reassembles the full JSONL. Because rows are checkpointed verbatim and
// merged in global index order, the merged file is byte-identical no matter
// how the index space was partitioned.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len is the number of runs in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Ranges partitions [0, n) into k contiguous ranges whose sizes differ by
// at most one (the first n%k ranges get the extra run). k is clamped to
// [1, n] for n > 0; Ranges(0, k) is empty.
func Ranges(n, k int) []Range {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]Range, 0, k)
	base, extra := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// checkpointRecord is one line of a per-range checkpoint file: the run's
// global index, its content key (so resume can detect a spec edit under a
// stale checkpoint directory), and the finished row exactly as it would be
// written to the campaign JSONL.
type checkpointRecord struct {
	Schema int             `json:"schema_version"`
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Row    json.RawMessage `json:"row"`
}

// CheckpointPath names the checkpoint file for a range inside dir. The
// range is part of the name so differently-partitioned reruns never clobber
// each other's files.
func CheckpointPath(dir string, r Range) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%d-%d.jsonl", r.Lo, r.Hi))
}

// checkpointWriter appends finished rows to a range's checkpoint file,
// flushing every record so a killed process loses at most the line being
// written.
type checkpointWriter struct {
	mu sync.Mutex
	f  *os.File
}

// newCheckpointWriter opens (creating parents as needed) the checkpoint
// file for r in append mode, so resuming extends the earlier attempt's
// records rather than discarding them.
func newCheckpointWriter(dir string, r Range) (*checkpointWriter, error) {
	path := CheckpointPath(dir, r)
	if err := obs.EnsureParent(path); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if err := terminateLine(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	return &checkpointWriter{f: f}, nil
}

// terminateLine ends a torn last line — a record a killed writer left
// half-written — with a newline, so the next appended record starts a line
// of its own instead of being glued onto the fragment and skipped with it
// by the loader.
func terminateLine(f *os.File) error {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return err
	}
	last := []byte{0}
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return err
	}
	if last[0] != '\n' {
		_, err = f.Write([]byte{'\n'})
	}
	return err
}

// append records one finished run. row must be the exact JSONL row bytes
// (no trailing newline).
func (w *checkpointWriter) append(index int, key RunKey, row []byte) error {
	rec, err := json.Marshal(checkpointRecord{
		Schema: SchemaVersion, Index: index, Key: key.String(), Row: row,
	})
	if err != nil {
		return err
	}
	rec = append(rec, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(rec); err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	return nil
}

func (w *checkpointWriter) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// CheckpointEntry is one recovered run: its content key and verbatim row.
type CheckpointEntry struct {
	Key RunKey
	Row json.RawMessage
}

// LoadCheckpoints reads every ckpt-*.jsonl file in dir and returns the
// recovered rows by global run index. Later records win for a duplicated
// index (a run completed twice across attempts produces identical bytes
// anyway). A truncated final line — the SIGKILL case — is skipped, as are
// records from other schema versions. A missing directory is an empty
// recovery, not an error, so cold starts and resumes share one code path.
func LoadCheckpoints(dir string) (map[int]CheckpointEntry, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	sort.Strings(matches)
	out := make(map[int]CheckpointEntry)
	for _, path := range matches {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("campaign: checkpoint: %w", err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue
			}
			var rec checkpointRecord
			if json.Unmarshal(line, &rec) != nil || rec.Schema != SchemaVersion {
				continue
			}
			key, err := ParseRunKey(rec.Key)
			if err != nil {
				continue
			}
			out[rec.Index] = CheckpointEntry{
				Key: key,
				Row: json.RawMessage(append([]byte(nil), rec.Row...)),
			}
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
		}
	}
	return out, nil
}

// MergeCheckpoints reassembles a complete campaign JSONL from the
// checkpoint files in dir, verifying that every index in [0, total) was
// recovered. Rows are emitted verbatim in global index order, so the output
// is byte-identical to a single-process run of the same spec regardless of
// how ranges and workers were assigned.
func MergeCheckpoints(dir string, total int, w io.Writer) error {
	got, err := LoadCheckpoints(dir)
	if err != nil {
		return err
	}
	var missing []int
	for i := 0; i < total; i++ {
		if _, ok := got[i]; !ok {
			missing = append(missing, i)
			if len(missing) >= 8 {
				break
			}
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("campaign: merge: %d/%d runs checkpointed; first missing indices %v (rerun the incomplete ranges before merging)",
			len(got), total, missing)
	}
	bw := bufio.NewWriter(w)
	for i := 0; i < total; i++ {
		bw.Write(got[i].Row)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
