package elearncloud_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"elearncloud/internal/experiments"
)

// runCheckDocs executes scripts/check-docs.sh from the repo root with
// the given KEY=value overrides (CATALOG= or ARCHDOC=), returning
// combined output and the error (nil on exit 0).
func runCheckDocs(t *testing.T, overrides ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("sh", filepath.Join("scripts", "check-docs.sh"))
	cmd.Env = append(os.Environ(), overrides...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestCheckDocsCatalogCrossCheck is the negative test for the scenario
// catalog gate: scripts/check-docs.sh must pass on the committed
// docs/SCENARIOS.md, fail when a registered experiment is missing from
// the catalog, and fail when the catalog names an id the registry does
// not have. Skipped under -short: each run shells out to
// `go run ./cmd/elbench -list`.
func TestCheckDocsCatalogCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped in -short mode")
	}
	committed, err := os.ReadFile(filepath.Join("docs", "SCENARIOS.md"))
	if err != nil {
		t.Fatal(err)
	}

	// The committed catalog must be in sync with the registry.
	if out, err := runCheckDocs(t, "CATALOG="+filepath.Join("docs", "SCENARIOS.md")); err != nil {
		t.Fatalf("check-docs fails on the committed catalog: %v\n%s", err, out)
	}

	dir := t.TempDir()

	// Direction one: drop a registered id from the catalog.
	var kept []string
	for _, line := range strings.Split(string(committed), "\n") {
		if strings.Contains(line, "`table9`") {
			continue
		}
		kept = append(kept, line)
	}
	missing := filepath.Join(dir, "missing.md")
	if err := os.WriteFile(missing, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCheckDocs(t, "CATALOG="+missing)
	if err == nil {
		t.Fatalf("catalog without table9 accepted:\n%s", out)
	}
	if !strings.Contains(out, "table9") || !strings.Contains(out, "missing from") {
		t.Fatalf("missing-id failure does not name the id:\n%s", out)
	}

	// Direction two: add a row for an id the registry does not have.
	extra := filepath.Join(dir, "extra.md")
	doctored := string(committed) + "\n| `table99` | bogus | bogus | bogus | 0s | bogus |\n"
	if err := os.WriteFile(extra, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCheckDocs(t, "CATALOG="+extra)
	if err == nil {
		t.Fatalf("catalog with unknown table99 accepted:\n%s", out)
	}
	if !strings.Contains(out, "table99") || !strings.Contains(out, "no such experiment") {
		t.Fatalf("unknown-id failure does not name the id:\n%s", out)
	}
}

// TestCheckDocsTagCrossCheck is the negative test for the tag layer of
// the catalog gate: a registry entry with no tags must fail the docs
// check, and a catalog row whose tags column disagrees with the
// registered tags must fail naming both sides. The registry side is
// fed through the LISTCMD= override (a canned listing file) so the
// tagless case can be exercised without doctoring the real registry.
func TestCheckDocsTagCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped in -short mode")
	}
	dir := t.TempDir()

	// A tagless registry entry is a docs failure even when the id
	// itself is catalogued. The canned listing keeps table1's real tags
	// (its catalog row must still cross-check) and strips figure10's.
	listing := filepath.Join(dir, "listing.txt")
	canned := "table1\tMerits\t@paper @des @cost\nfigure10\tStorm\t\n"
	if err := os.WriteFile(listing, []byte(canned), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCheckDocs(t, "LISTCMD=cat "+listing)
	if err == nil {
		t.Fatalf("tagless figure10 accepted:\n%s", out)
	}
	if !strings.Contains(out, "figure10") || !strings.Contains(out, "without any tags") {
		t.Fatalf("tagless failure does not name the entry:\n%s", out)
	}

	// A catalog/registry tag mismatch fails and reports both tag sets.
	listing2 := filepath.Join(dir, "listing2.txt")
	canned2 := "table1\tMerits\t@paper @des @security\n"
	if err := os.WriteFile(listing2, []byte(canned2), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCheckDocs(t, "LISTCMD=cat "+listing2)
	if err == nil {
		t.Fatalf("mismatched table1 tags accepted:\n%s", out)
	}
	if !strings.Contains(out, "tags for table1") ||
		!strings.Contains(out, "@paper @des @security") ||
		!strings.Contains(out, "@paper @des @cost") {
		t.Fatalf("tag-mismatch failure does not show both sides:\n%s", out)
	}

	// The committed registry and catalog must agree (the real listing).
	if out, err := runCheckDocs(t); err != nil {
		t.Fatalf("check-docs fails on the committed tag layer: %v\n%s", err, out)
	}
}

// TestCheckDocsAnalyzerCrossCheck is the negative test for the
// determinism-analyzer gate: scripts/check-docs.sh must pass on the
// committed ARCHITECTURE.md, fail when a registered analyzer's row is
// dropped from the invariants table, and fail when the table documents
// an analyzer elvet does not register. Skipped under -short: each run
// shells out to `go run ./cmd/elvet -list` (and elbench for the
// catalog half).
func TestCheckDocsAnalyzerCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go toolchain; skipped in -short mode")
	}
	committed, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}

	if out, err := runCheckDocs(t, "ARCHDOC=ARCHITECTURE.md"); err != nil {
		t.Fatalf("check-docs fails on the committed ARCHITECTURE.md: %v\n%s", err, out)
	}

	dir := t.TempDir()

	// Direction one: drop a registered analyzer's table row.
	var kept []string
	for _, line := range strings.Split(string(committed), "\n") {
		if strings.HasPrefix(line, "| `maporder` |") {
			continue
		}
		kept = append(kept, line)
	}
	missing := filepath.Join(dir, "missing.md")
	if err := os.WriteFile(missing, []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCheckDocs(t, "ARCHDOC="+missing)
	if err == nil {
		t.Fatalf("invariants table without maporder accepted:\n%s", out)
	}
	if !strings.Contains(out, "maporder") || !strings.Contains(out, "missing from") {
		t.Fatalf("missing-analyzer failure does not name the analyzer:\n%s", out)
	}

	// Direction two: document an analyzer the registry does not have.
	doctored := strings.Replace(string(committed),
		"| `maporder` |",
		"| `mapdisorder` | bogus | bogus |\n| `maporder` |", 1)
	extra := filepath.Join(dir, "extra.md")
	if err := os.WriteFile(extra, []byte(doctored), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = runCheckDocs(t, "ARCHDOC="+extra)
	if err == nil {
		t.Fatalf("invariants table with unknown mapdisorder accepted:\n%s", out)
	}
	if !strings.Contains(out, "mapdisorder") || !strings.Contains(out, "does not register") {
		t.Fatalf("unknown-analyzer failure does not name the analyzer:\n%s", out)
	}
}

// artifactCount matches the phrases docs use to count the registry,
// also when a line break splits them: "N artifacts", "N goldens", "N
// regenerable tables/figures", "N tables and figures", "N experiments",
// "all N" and "all-N golden".
var artifactCount = regexp.MustCompile(`(?i)\ball[\s-]+(\d+)\b|(?:^|[\s(])(\d+)\s+(?:regenerable\s+)?(?:golden|artifact|experiment|tables(?:\s+and\s+|/)figure)s?\b`)

// TestDocsArtifactCount keeps the registry the one source for the
// artifact count: every count phrase in the docs, the CI workflow and
// the verify skill must equal len(experiments.All()).
func TestDocsArtifactCount(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, "README.md", "ARCHITECTURE.md",
		filepath.Join(".github", "workflows", "ci.yml"),
		filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	want := fmt.Sprint(len(experiments.All()))
	seen := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		for _, m := range artifactCount.FindAllStringSubmatchIndex(text, -1) {
			seen++
			start := max(m[2], m[4])
			if got := text[start:max(m[3], m[5])]; got != want {
				line := strings.Count(text[:start], "\n") + 1
				phrase := strings.Join(strings.Fields(strings.TrimLeft(text[m[0]:m[1]], "(")), " ")
				t.Errorf("%s:%d: %q counts %s, the registry has %s", f, line, phrase, got, want)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no artifact-count phrase found; the pattern no longer matches the docs")
	}
}
