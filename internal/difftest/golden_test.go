package difftest

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"tdbms/internal/bench"
	"tdbms/internal/core"
)

// The executor's reference is a file of recorded answers, not a second
// executor: testdata/answers.golden holds, for every (database type ×
// access method) cell of the configuration matrix and every recovered
// database of the fault matrix, the row count and checksum of each
// Figure 4 query's canonical result, as the tuple-at-a-time Volcano
// executor returned them at the last commit that had one. The batch
// executor must reproduce them at every capacity in goldenCaps.

var update = flag.Bool("update", false, "record the answers testdata/answers.golden lacks (lines it has are never rewritten)")

const goldenPath = "testdata/answers.golden"

// goldenHeader opens a freshly recorded file. It is only true of the
// recording made at the commit it names; -update keeps an existing file's
// header and lines and adds cells, it does not re-record.
const goldenHeader = `# Reference answers of the Figure 4 benchmark queries.
# Recorded by the tuple-at-a-time Volcano executor (SetBatchSize(-1):
# exec.Run over exec.Scan/NestedLoop/Filter/Project, interpreted
# passesVar) at commit 00b103bcc38352a1e27abab5af5d151c7a15423f, the last
# commit that had that executor; it was deleted in the next one.
# Lines: <cell> <query> <rows> <sha256 of difftest.Canon(rows)>.
# go test ./internal/difftest -update adds cells the file lacks and
# fails on a recorded line that no longer matches.
`

// goldenCaps are the batch capacities checked against the recording:
// tuple-at-a-time, the smallest real batch, one that divides nothing, and
// the default.
var goldenCaps = []int{1, 2, 7, 256}

var golden struct {
	mu     sync.Mutex
	loaded bool
	header string
	want   map[string]string // "cell query" -> "rows sha256"
	added  bool
}

func answerSum(canon string) string {
	rows := 0
	if canon != "" {
		rows = strings.Count(canon, "\n") + 1
	}
	return fmt.Sprintf("%d %x", rows, sha256.Sum256([]byte(canon)))
}

// loadGolden reads the recording once. Caller holds golden.mu.
func loadGolden() error {
	if golden.loaded {
		return nil
	}
	golden.loaded, golden.header, golden.want = true, goldenHeader, map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if os.IsNotExist(err) && *update {
		return nil
	}
	if err != nil {
		return err
	}
	golden.header = ""
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			golden.header += line + "\n"
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return fmt.Errorf("%s: malformed line %q", goldenPath, line)
		}
		golden.want[f[0]+" "+f[1]] = f[2] + " " + f[3]
	}
	return nil
}

// checkGolden requires every answer of snap to equal the recording for
// cell. Under -update an answer the file lacks is recorded instead.
func checkGolden(t *testing.T, cell, variant string, snap map[string]string) {
	t.Helper()
	golden.mu.Lock()
	defer golden.mu.Unlock()
	if err := loadGolden(); err != nil {
		t.Fatal(err)
	}
	for id, canon := range snap {
		key, got := cell+" "+id, answerSum(canon)
		want, ok := golden.want[key]
		switch {
		case !ok && *update:
			golden.want[key], golden.added = got, true
		case !ok:
			t.Errorf("%s %s: no recorded answer for %s (run with -update to add the cell)", cell, variant, id)
		case got != want:
			t.Errorf("%s %s %s: answer differs from the recording\n got: %s\nwant: %s", cell, variant, id, got, want)
		}
	}
}

// checkGoldenCaps snapshots db's default session at every capacity in
// goldenCaps and checks each against the recording for cell. Under -update
// the recording is taken first, at SetBatchSize(-1).
func checkGoldenCaps(t *testing.T, cell string, typ bench.DBType, db *core.Database) {
	t.Helper()
	sess := db.DefaultSession()
	defer sess.SetBatchSize(0)
	caps := goldenCaps
	if *update {
		caps = append([]int{-1}, caps...)
	}
	for _, n := range caps {
		sess.SetBatchSize(n)
		snap, err := Snapshot(db, typ)
		if err != nil {
			t.Fatalf("%s at batch size %d: %v", cell, n, err)
		}
		checkGolden(t, cell, fmt.Sprintf("batch%d", n), snap)
	}
}

// TestMain writes the recording back when -update added to it.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && golden.added {
		keys := make([]string, 0, len(golden.want))
		for k := range golden.want {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		b.WriteString(golden.header)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s %s\n", k, golden.want[k])
		}
		err := os.MkdirAll("testdata", 0o755)
		if err == nil {
			err = os.WriteFile(goldenPath, []byte(b.String()), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "difftest: writing", goldenPath+":", err)
			code = 1
		}
	}
	os.Exit(code)
}
