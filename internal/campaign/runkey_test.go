package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata manifests")

// TestRunKeysPinned pins the content keys of every builtin campaign, without
// simulating anything. Each line of testdata/runkey.sha256 is the SHA-256
// over the keys of one builtin's runs, in expansion order, at one of the
// four KeyMode combinations, so a change to the identity rendering names
// the builtins and modes it re-keys. A re-keyed run misses every cache
// record written before the change. To bless an intentional change:
//
//	go test ./internal/campaign -run TestRunKeysPinned -update
//
// and explain the changed lines in the commit message.
func TestRunKeysPinned(t *testing.T) {
	m := openManifest(t, "testdata/runkey.sha256")
	var scratch []byte
	for _, name := range BuiltinNames() {
		spec, _ := Builtin(name)
		runs, err := spec.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mode := range []KeyMode{{}, {Hist: true}, {Canon: true}, {Hist: true, Canon: true}} {
			h := sha256.New()
			for _, r := range runs {
				var key RunKey
				key, scratch = r.ContentKey(mode, scratch)
				h.Write(key[:])
			}
			m.check(fmt.Sprintf("%s %+v", name, mode), h.Sum(nil))
		}
	}
	m.close()
}

// manifest compares digests with a testdata file of "<sha256>  <id>"
// lines, one per id, or rewrites the file under -update.
type manifest struct {
	t    *testing.T
	path string
	want map[string]string
	got  strings.Builder
}

func openManifest(t *testing.T, path string) *manifest {
	t.Helper()
	m := &manifest{t: t, path: path, want: map[string]string{}}
	if *update {
		return m
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if sum, id, ok := strings.Cut(line, "  "); ok {
			m.want[id] = sum
		}
	}
	return m
}

// check records id's digest and reports whether it matches the file.
func (m *manifest) check(id string, digest []byte) bool {
	m.t.Helper()
	sum := fmt.Sprintf("%x", digest)
	fmt.Fprintf(&m.got, "%s  %s\n", sum, id)
	want, listed := m.want[id]
	delete(m.want, id)
	if !*update && sum != want {
		m.t.Errorf("%s: digest drifted from %s (listed: %v)", id, m.path, listed)
		return false
	}
	return true
}

// skip leaves id's line unchecked (and, since -update needs every line,
// is only for runs without it).
func (m *manifest) skip(id string) { delete(m.want, id) }

// close reports lines no check claimed, and writes the file under -update.
func (m *manifest) close() {
	m.t.Helper()
	for id := range m.want {
		m.t.Errorf("%s lists %q, which no check produced", m.path, id)
	}
	if *update && !m.t.Failed() {
		if err := os.WriteFile(m.path, []byte(m.got.String()), 0o644); err != nil {
			m.t.Fatal(err)
		}
	}
}

// FuzzRunKeyDecoders drives arbitrary bytes through the decoders that read
// run keys back from disk: ParseRunKey, and the result store's loader with
// the bytes as a store file's content. No input may panic, every key that
// loads must round-trip through String, and a record the store appends
// after whatever the bytes left behind — a torn line included — must load
// with the content fields it was put with, also for a store that appends
// to another file of the directory.
func FuzzRunKeyDecoders(f *testing.F) {
	var key RunKey
	key[0], key[len(key)-1] = 0xab, 0x01
	hexKey := key.String()
	row := `{"schema_version":1,"index":2,"app":"LU","sim_us":1.5}`
	for _, seed := range []string{
		"", hexKey, strings.ToUpper(hexKey), hexKey[:len(hexKey)-1], "zz",
		`{"schema_version":1,"key":"` + hexKey + `","row":` + row + "}\n",
		`{"schema_version":1,"index":2,"key":"` + hexKey + `","row":` + row + "}\n",
		`{"schema_version":2,"index":2,"key":"` + hexKey + `","row":{}}` + "\n",
		`{"schema_version":1,"key":"dead`,
		"\n\r\n{}\n[]\nnull",
	} {
		f.Add([]byte(seed))
	}

	var want RunKey
	want[0] = 0x5a
	res := RunResult{Schema: SchemaVersion, Index: 3, App: "LU", SimMicros: 12.5}
	roundTrips := func(t *testing.T, k RunKey) {
		if back, err := ParseRunKey(k.String()); err != nil || back != k {
			t.Errorf("key %s does not round-trip through String: %v, %v", k, back, err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if k, err := ParseRunKey(string(data)); err == nil {
			roundTrips(t, k)
			if k.String() != strings.ToLower(string(data)) {
				t.Errorf("ParseRunKey(%q) = %s", data, k)
			}
		}

		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, StoreFile(0, 1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := OpenDiskStore(dir, StoreFile(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		for k := range store.m {
			roundTrips(t, k)
		}
		_, held := store.m[want] // the bytes already hold a record for want
		store.Put(want, res)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenDiskStore(dir, StoreFile(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		got, ok := reopened.Get(want)
		reopened.Close()
		if !ok || (!held && outcomeOf(&got) != outcomeOf(&res)) {
			gotRow, _ := json.Marshal(&got)
			t.Errorf("store record appended after %q: loaded %v, %s", data, ok, gotRow)
		}
	})
}
