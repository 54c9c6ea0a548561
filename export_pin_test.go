package seacma

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// goldenExportLogsDigest pins the per-session browser logs a dataset
// export writes for the quick configuration (seed 1, every SE session):
// file names and contents, in name order. Those logs are the only
// export artefact that reads the crawl's raw instrumentation logs, so a
// log dropped before the export reads it shows up here, not as an empty
// file that still counts as written.
const goldenExportLogsDigest = "2bec934c055447dd912aed95c6e88015b176479e2f2ba45470a3bbfee0e79ac7"

func TestExportLogsPinned(t *testing.T) {
	ex := quickExport(t)
	if ex.sum.SessionLogs == 0 {
		t.Fatalf("no session logs exported: %+v", ex.sum)
	}
	if ex.logFiles != ex.sum.SessionLogs {
		t.Fatalf("%d log files on disk, summary says %d", ex.logFiles, ex.sum.SessionLogs)
	}
	if ex.logsDigest != goldenExportLogsDigest {
		t.Fatalf("export logs digest %s over %d files, want %s", ex.logsDigest, ex.logFiles, goldenExportLogsDigest)
	}
}

// exportResult is what the shared quick export left on disk.
type exportResult struct {
	sum        dataset.Summary
	logsDigest string
	logFiles   int
}

var (
	exportOnce sync.Once
	exportRes  exportResult
	exportErr  error
)

// quickExport runs the quick configuration through RunExport once per
// test binary, with no session-log bound, and digests the logs it
// wrote; the export tests share that one run.
func quickExport(t *testing.T) exportResult {
	t.Helper()
	exportOnce.Do(func() {
		dir, err := os.MkdirTemp("", "seacma-export")
		if err != nil {
			exportErr = err
			return
		}
		defer os.RemoveAll(dir)
		_, exportRes.sum, exportErr = NewExperiment(QuickExperimentConfig()).RunExport(context.Background(), dir, 0)
		if exportErr == nil {
			exportRes.logsDigest, exportRes.logFiles, exportErr = logsDigest(filepath.Join(dir, "logs"))
		}
	})
	if exportErr != nil {
		t.Fatalf("quick export: %v", exportErr)
	}
	return exportRes
}

// logsDigest hashes every file under dir (name, then contents) in name
// order and returns the digest and the file count.
func logsDigest(dir string) (string, int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", 0, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", 0, err
		}
		fmt.Fprintf(h, "%s\n%d\n", name, len(raw))
		h.Write(raw)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), len(names), nil
}
