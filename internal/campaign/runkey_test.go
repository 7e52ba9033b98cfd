package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/runkey.sha256")

// TestRunKeysPinned pins the content keys of every builtin campaign, without
// simulating anything. Each line of testdata/runkey.sha256 is the SHA-256
// over the keys of one builtin's runs, in expansion order, at one of the
// four KeyMode combinations, so a change to the identity rendering names
// the builtins and modes it re-keys. A re-keyed run misses every cache and
// checkpoint record written before the change. To bless an intentional
// change:
//
//	go test ./internal/campaign -run TestRunKeysPinned -update
//
// and explain the changed lines in the commit message.
func TestRunKeysPinned(t *testing.T) {
	const path = "testdata/runkey.sha256"
	want := map[string]string{}
	if !*update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			if sum, id, ok := strings.Cut(line, "  "); ok {
				want[id] = sum
			}
		}
	}
	var manifest strings.Builder
	var scratch []byte
	for _, name := range BuiltinNames() {
		spec, _ := Builtin(name)
		runs, err := spec.Expand()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mode := range []KeyMode{{}, {Hist: true}, {Canon: true}, {Hist: true, Canon: true}} {
			id := fmt.Sprintf("%s %+v", name, mode)
			h := sha256.New()
			for _, r := range runs {
				var key RunKey
				key, scratch = r.ContentKey(mode, scratch)
				h.Write(key[:])
			}
			sum := fmt.Sprintf("%x", h.Sum(nil))
			fmt.Fprintf(&manifest, "%s  %s\n", sum, id)
			if !*update && sum != want[id] {
				t.Errorf("%s: run keys drifted from %s", id, path)
			}
			delete(want, id)
		}
	}
	for id := range want {
		t.Errorf("%s lists %q, which no builtin produces", path, id)
	}
	if *update && !t.Failed() {
		if err := os.WriteFile(path, []byte(manifest.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzRunKeyDecoders drives arbitrary bytes through the decoders that read
// run keys back from disk: ParseRunKey, and the result-store and checkpoint
// loaders with the bytes as a file's content. No input may panic, every
// key that loads must round-trip through String, and a record the store or
// the checkpoint writer appends after whatever the bytes left behind — a
// torn line included — must load.
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
	resRow, err := json.Marshal(&res)
	if err != nil {
		f.Fatal(err)
	}
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
		cache := filepath.Join(dir, "cache.jsonl")
		if err := os.WriteFile(cache, data, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := OpenDiskStore(cache)
		if err != nil {
			t.Fatal(err)
		}
		for k := range store.m {
			roundTrips(t, k)
		}
		store.Put(want, res)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenDiskStore(cache)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := reopened.Get(want)
		reopened.Close()
		if gotRow, _ := json.Marshal(&got); !ok || !bytes.Equal(gotRow, resRow) {
			t.Errorf("store record appended after %q: loaded %v, %s", data, ok, gotRow)
		}

		ckpt := filepath.Join(dir, "ckpt")
		rg := Range{Lo: 0, Hi: 4}
		if err := os.Mkdir(ckpt, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(CheckpointPath(ckpt, rg), data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := LoadCheckpoints(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			roundTrips(t, e.Key)
		}
		w, err := newCheckpointWriter(ckpt, rg)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.append(res.Index, want, resRow); err != nil {
			t.Fatal(err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		entries, err = LoadCheckpoints(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := entries[res.Index]; !ok || e.Key != want || !bytes.Equal(e.Row, resRow) {
			t.Errorf("checkpoint record appended after %q: loaded %v, %+v", data, ok, e)
		}
	})
}
