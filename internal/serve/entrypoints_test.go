package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"resilex/internal/cluster"
	"resilex/internal/obs"
	"resilex/internal/wrapper"
)

// writeGolden holds the expected write-response bodies of
// TestWriteEntryPointsAgree. Regenerate it (only when a body is meant to
// change) with SERVE_WRITE_GOLDEN=1 go test ./internal/serve -run TestWriteEntryPointsAgree
var writeGolden = filepath.Join("testdata", "write_entry_points.golden")

// writeEntry is one way into the versioned registry's writes. write applies
// op and reports the status and body a client would see; the in-process
// seams have no body and report the status their error maps to.
type writeEntry struct {
	name  string
	write func(t *testing.T, s *Server, op cluster.Op) (status int, body string, version uint64)
}

var writeEntries = []writeEntry{
	{"direct", func(t *testing.T, s *Server, op cluster.Op) (int, string, uint64) {
		method, path := "POST", "/wrappers/"+op.Key
		switch op.Kind {
		case cluster.OpPut:
			method = "PUT"
		case cluster.OpDelete:
			method = "DELETE"
		case cluster.OpCanary:
			method, path = "PUT", path+"/canary"
		default:
			path += "/" + op.Kind.String()
		}
		if op.Version != 0 {
			path += "?version=" + strconv.FormatUint(op.Version, 10)
		}
		rec := do(t, s, method, path, op.Payload)
		return rec.Code, rec.Body.String(), bodyVersion(rec.Body.Bytes())
	}},
	{"cluster-apply", func(t *testing.T, s *Server, op cluster.Op) (int, string, uint64) {
		rec := doFrame(t, s, cluster.EncodeOp(op))
		return rec.Code, rec.Body.String(), bodyVersion(rec.Body.Bytes())
	}},
	{"seam", func(t *testing.T, s *Server, op cluster.Op) (int, string, uint64) {
		var v uint64
		var err error
		ok := http.StatusOK
		switch op.Kind {
		case cluster.OpPut:
			v, err = s.PutWrapper(context.Background(), op.Key, op.Payload)
			ok = http.StatusCreated
		case cluster.OpCanary:
			v, err = s.DeployCanary(op.Key, op.Payload)
			ok = http.StatusCreated
		case cluster.OpPromote:
			err = s.Promote(op.Key, op.Version)
		case cluster.OpRollback:
			err = s.Rollback(op.Key, op.Version)
		case cluster.OpDelete:
			if !s.DeleteWrapper(op.Key) {
				err = errors.New("unknown key")
			}
		}
		switch {
		case err == nil:
			return ok, "", v
		case errors.Is(err, errVersionConflict):
			return http.StatusConflict, "", 0
		case errors.Is(err, wrapper.ErrMalformedInput):
			return http.StatusBadRequest, "", 0
		}
		return http.StatusNotFound, "", 0
	}},
}

// bodyVersion reads the "version" field of a put or canary body (0 when
// absent), to compare with the version the seam returns.
func bodyVersion(body []byte) uint64 {
	var b struct {
		Version uint64 `json:"version"`
	}
	json.Unmarshal(body, &b)
	return b.Version
}

// TestWriteEntryPointsAgree drives one scripted rollout through every entry
// point of the registry's writes — the direct routes, POST /cluster/apply
// frames and the in-process seams — each on a fresh server with its own
// cache directory. After every step all three must report the same status
// and VersionState (and the same GET …/versions body); the direct route and
// the cluster apply must answer byte-identical bodies; and those bodies must
// match the committed golden file, so no write response drifts unnoticed.
func TestWriteEntryPointsAgree(t *testing.T) {
	good, next := trainedPayload(t), futurePayload(t)
	steps := []struct {
		name string
		op   cluster.Op // Kind 0: restart every server from its cache directory
	}{
		{"put", cluster.Op{Kind: cluster.OpPut, Key: "vs", Payload: good}},
		{"canary", cluster.Op{Kind: cluster.OpCanary, Key: "vs", Payload: next}},
		{"promote", cluster.Op{Kind: cluster.OpPromote, Key: "vs"}},
		{"canary again", cluster.Op{Kind: cluster.OpCanary, Key: "vs", Payload: good}},
		{"rollback discards the canary", cluster.Op{Kind: cluster.OpRollback, Key: "vs", Version: 3}},
		{"rollback reverts to the prior version", cluster.Op{Kind: cluster.OpRollback, Key: "vs"}},
		{"canary to be promoted", cluster.Op{Kind: cluster.OpCanary, Key: "vs", Payload: next}},
		{"promote with a stale version", cluster.Op{Kind: cluster.OpPromote, Key: "vs", Version: 3}},
		{"canary on an unknown key", cluster.Op{Kind: cluster.OpCanary, Key: "nosuch", Payload: next}},
		{"delete", cluster.Op{Kind: cluster.OpDelete, Key: "vs"}},
		{"delete again", cluster.Op{Kind: cluster.OpDelete, Key: "vs"}},
		{"re-put", cluster.Op{Kind: cluster.OpPut, Key: "vs", Payload: good}},
		{"put a malformed payload", cluster.Op{Kind: cluster.OpPut, Key: "vs", Payload: []byte(`{"version":1,"expr":`)}},
		{"canary in flight across the restart", cluster.Op{Kind: cluster.OpCanary, Key: "vs", Payload: next}},
		{"restart", cluster.Op{Key: "vs"}},
	}

	dirs := make([]string, len(writeEntries))
	servers := make([]*Server, len(writeEntries))
	for i := range writeEntries {
		dirs[i] = t.TempDir()
		servers[i] = diskServer(t, dirs[i], nil, obs.New())
	}
	var golden bytes.Buffer
	for _, st := range steps {
		var (
			status   [3]int
			body     [3]string
			version  [3]uint64
			state    [3]VersionState
			known    [3]bool
			versions [3]string
		)
		for i, e := range writeEntries {
			if st.op.Kind == 0 {
				servers[i] = diskServer(t, dirs[i], nil, obs.New())
				status[i] = http.StatusOK
			} else {
				status[i], body[i], version[i] = e.write(t, servers[i], st.op)
			}
			state[i], known[i] = servers[i].VersionState(st.op.Key)
			versions[i] = do(t, servers[i], "GET", "/wrappers/"+st.op.Key+"/versions", nil).Body.String()
		}
		for i := 1; i < len(writeEntries); i++ {
			if status[i] != status[0] || state[i] != state[0] || known[i] != known[0] || versions[i] != versions[0] {
				t.Fatalf("%s: %s and %s disagree:\n  status %d vs %d\n  state %+v (%v) vs %+v (%v)\n  versions %s  vs %s",
					st.name, writeEntries[0].name, writeEntries[i].name,
					status[0], status[i], state[0], known[0], state[i], known[i], versions[0], versions[i])
			}
			if payloadOp := st.op.Kind == cluster.OpPut || st.op.Kind == cluster.OpCanary; payloadOp && version[i] != version[0] {
				t.Fatalf("%s: %s assigned version %d, %s %d", st.name,
					writeEntries[0].name, version[0], writeEntries[i].name, version[i])
			}
		}
		if body[1] != body[0] {
			t.Fatalf("%s: direct body %q, cluster apply body %q", st.name, body[0], body[1])
		}
		fmt.Fprintf(&golden, "## %s\nstatus %d\nbody %s\nstate %+v known=%v\nversions %s\n",
			st.name, status[0], strings.TrimSuffix(body[0], "\n"), state[0], known[0],
			strings.TrimSuffix(versions[0], "\n"))
	}

	if os.Getenv("SERVE_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(writeGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(writeGolden, golden.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(writeGolden)
	if err != nil {
		t.Fatalf("golden file missing (regenerate with SERVE_WRITE_GOLDEN=1): %v", err)
	}
	if got := golden.String(); got != string(want) {
		t.Errorf("write responses drifted from %s:\n--- got\n%s\n--- want\n%s", writeGolden, got, want)
	}
}
