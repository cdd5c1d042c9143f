package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// wrapperRegistry persists the version state of every registered key so a
// restarted server reloads the same fleet — including an in-flight canary —
// it was serving. Each key is one envelope file named by the SHA-256 of its
// site key (keys are client-chosen strings; hashing keeps them path-safe).
//
// An envelope file is a log of records, one compact JSON record per line,
// oldest first. A write appends the key's new record as one line: one
// O_APPEND open, one Write, one close, with no temp file and no rename. It
// rewrites the file atomically instead (temp file + rename, holding only
// the new line) on the key's first write since this registry opened, on a
// write that would give the file more than maxRecords lines, and when the
// open or the append fails. So every line after the first comes from one
// process, and a partial line left by a crash or a failed append is never
// followed by a good one. Restore reads the newest intact record: the last
// line that decodes to a keyed record, read from the file's end. A torn
// newest line costs only that write, and the key restores the record before
// it, version counter and all; a file with no intact line is skipped at
// restore, never fatal. A one-record file is both the rewrite's output and
// every earlier build's envelope.
//
// Neither path calls fsync, and a process crash loses no acknowledged
// write on either. They differ after a power loss or kernel crash: on ext4
// a rename over an existing name makes the kernel flush the new file's
// data, so a rewritten record reaches disk with the next journal commit,
// while an appended record is left to periodic writeback, so the window in
// which an acknowledged write can be lost grows.
//
// The envelope is versioned end to end: it carries the key's monotone
// version counter, the active/canary/prior wrapper versions, and the
// deletion flag. A tombstone is a versioned record like any other — it keeps
// the counter, so a DELETE followed by a re-PUT across a restart resurrects
// the key with a strictly higher version instead of staying tombstoned.
// Restore applies tombstones after the deploy-time fleet file has loaded, so
// deleting a key that shipped in -fleet stays deleted across restarts.
//
// The registry stores wrapper *configuration* (tokenizer settings, strategy,
// expression source); the expensive compiled automata live next door in the
// extract.DiskCache, so restoring N sites that share one expression decodes
// the artifact once and compiles nothing.
type wrapperRegistry struct {
	dir string
	mu  sync.Mutex // serializes directory mutation; guards lines
	// lines counts the records in the file of each key written since the
	// registry opened; a key it does not hold is rewritten on its next
	// write.
	lines map[string]int
}

// maxRecords bounds the records one envelope file holds: seven writes in
// eight append. Restore reads only the file's tail, so the bound caps the
// file's size and costs restore nothing.
const maxRecords = 8

func newWrapperRegistry(dir string) (*wrapperRegistry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wrapper registry: %w", err)
	}
	return &wrapperRegistry{dir: dir, lines: map[string]int{}}, nil
}

func (r *wrapperRegistry) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(r.dir, hex.EncodeToString(sum[:])+".json")
}

// write persists one key's record as the newest line of its envelope. The
// caller holds the key table's write lock, so the record is a consistent
// snapshot and writes to one key land in version order.
func (r *wrapperRegistry) write(rec record) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wrapper registry: %w", err)
	}
	blob = append(blob, '\n')
	path := r.path(rec.Key)
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.lines[rec.Key]; n > 0 && n < maxRecords && appendLine(path, blob) == nil {
		r.lines[rec.Key] = n + 1
		return nil
	}
	if err := r.rewrite(path, blob); err != nil {
		delete(r.lines, rec.Key)
		return fmt.Errorf("wrapper registry: %w", err)
	}
	r.lines[rec.Key] = 1
	return nil
}

// appendLine appends line to the existing file at path.
func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(line)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rewrite atomically replaces the file at path with one holding only line.
func (r *wrapperRegistry) rewrite(path string, line []byte) error {
	tmp, err := os.CreateTemp(r.dir, ".put-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(line); err == nil {
		err = tmp.Close()
		if err == nil {
			err = os.Rename(tmp.Name(), path)
		}
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// list names the envelope files in directory order. A nil registry lists
// nothing.
func (r *wrapperRegistry) list() []string {
	if r == nil {
		return nil
	}
	files, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range files {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	return names
}

// tailWindow is how many bytes read takes from the end of an envelope file
// first, however many records the file holds. A Figure 1 wrapper's record
// with active, canary and prior payloads is about 0.9 KB; a longer newest
// record costs a second read, of the whole file.
const tailWindow = 1 << 10

// read decodes the newest intact record of one listed envelope file — its
// last line that decodes to a keyed record — normalizing a legacy entry
// (payload in Wrapper, no version counter) to active version 1. It reads
// the file's last tailWindow bytes, and the whole file only when they hold
// no intact record. A file that cannot be read or holds no such line is an
// error: restore counts and skips it, so one torn envelope cannot keep the
// rest of the fleet down.
func (r *wrapperRegistry) read(name string) (record, error) {
	f, err := os.Open(filepath.Join(r.dir, name))
	if err != nil {
		return record{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return record{}, err
	}
	size := st.Size()
	for w := min(size, tailWindow); ; w = size {
		buf := make([]byte, w)
		if _, err := f.ReadAt(buf, size-w); err != nil {
			return record{}, err
		}
		if rec, ok := newestRecord(buf, w == size); ok {
			return rec, nil
		}
		if w == size {
			return record{}, fmt.Errorf("wrapper registry: %s holds no intact record", name)
		}
	}
}

// newestRecord decodes the last line of buf that decodes to a keyed record.
// Unless whole is set, buf starts mid-file, so its first line may be cut
// and is not tried.
func newestRecord(buf []byte, whole bool) (record, bool) {
	for len(buf) > 0 {
		i := bytes.LastIndexByte(buf, '\n')
		if i < 0 && !whole {
			break
		}
		line := buf[i+1:]
		buf = buf[:max(i, 0)]
		if len(line) == 0 {
			continue
		}
		var rec record
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			continue
		}
		if rec.Active == nil && len(rec.Wrapper) > 0 && !rec.Deleted {
			// Legacy envelope: the payload becomes active version 1.
			rec.Active = &versionedWrapper{Version: 1, Payload: rec.Wrapper}
			rec.LastVersion = max(rec.LastVersion, 1)
		}
		rec.Wrapper = nil
		return rec, true
	}
	return record{}, false
}
