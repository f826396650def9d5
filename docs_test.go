package rbq

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches a Markdown file reference such as README.md or
// docs/ARCHITECTURE.md.
var mdRef = regexp.MustCompile(`\b[\w./-]*\w\.md\b`)

// TestDocReferencesExist: every *.md file named in the repository's Go
// sources, Markdown and YAML resolves, against the referencing file's
// directory or the repository root. A comment pointing readers at a
// document that does not exist is a broken link.
func TestDocReferencesExist(t *testing.T) {
	exists := func(p string) bool {
		_, err := os.Stat(p)
		return err == nil
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden directories hold VCS state, tool settings and build
			// output, except .github, which holds the CI workflows.
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") && name != ".github") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".md", ".yml":
		default:
			return nil
		}
		// Of the root-level Markdown only README.md is user documentation;
		// the others are planning notes (future work, history, paper and
		// related-work listings) that name missing or external files on
		// purpose, so their references are not checked.
		if filepath.Dir(path) == "." && filepath.Ext(path) == ".md" && path != "README.md" {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, ref := range mdRef.FindAllString(line, -1) {
				if !exists(filepath.Join(filepath.Dir(path), ref)) && !exists(ref) {
					t.Errorf("%s:%d: reference to missing %s", path, i+1, ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
