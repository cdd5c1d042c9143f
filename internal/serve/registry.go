package serve

import (
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
// it was serving. Each key is one JSON envelope file named by the SHA-256 of
// its site key (keys are client-chosen strings; hashing keeps them
// path-safe). Entries are written atomically (temp file + rename); an
// envelope that no longer decodes — a torn write from a hard crash — is
// skipped at restore, never fatal.
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
	mu  sync.Mutex // serializes directory mutation
}

func newWrapperRegistry(dir string) (*wrapperRegistry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wrapper registry: %w", err)
	}
	return &wrapperRegistry{dir: dir}, nil
}

func (r *wrapperRegistry) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(r.dir, hex.EncodeToString(sum[:])+".json")
}

// write persists one key's record as its envelope. The caller holds the key
// table's write lock, so the envelope is a consistent snapshot.
func (r *wrapperRegistry) write(rec record) error {
	blob, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wrapper registry: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tmp, err := os.CreateTemp(r.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("wrapper registry: %w", err)
	}
	if _, err := tmp.Write(blob); err == nil {
		err = tmp.Close()
		if err == nil {
			err = os.Rename(tmp.Name(), r.path(rec.Key))
		}
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("wrapper registry: %w", err)
	}
	return nil
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

// read reads and decodes one listed envelope, normalizing a legacy entry
// (payload in Wrapper, no version counter) to active version 1. A file that
// cannot be read or does not decode to a keyed record is an error: restore
// counts and skips it, so one torn envelope cannot keep the rest of the
// fleet down.
func (r *wrapperRegistry) read(name string) (record, error) {
	blob, err := os.ReadFile(filepath.Join(r.dir, name))
	if err != nil {
		return record{}, err
	}
	var rec record
	if err := json.Unmarshal(blob, &rec); err != nil {
		return record{}, fmt.Errorf("wrapper registry: %s: %w", name, err)
	}
	if rec.Key == "" {
		return record{}, fmt.Errorf("wrapper registry: %s names no key", name)
	}
	if rec.Active == nil && len(rec.Wrapper) > 0 && !rec.Deleted {
		// Legacy envelope: the payload becomes active version 1.
		rec.Active = &versionedWrapper{Version: 1, Payload: rec.Wrapper}
		rec.LastVersion = max(rec.LastVersion, 1)
	}
	rec.Wrapper = nil
	return rec, nil
}
