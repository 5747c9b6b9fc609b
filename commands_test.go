package puffer

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// commandDocs are the documents that name commands by their cmd/ path.
var commandDocs = []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

// gitignoreBinaries opens the .gitignore block that lists the binaries
// `go build ./cmd/<name>` leaves in the repo root, one "/name" a line up to
// the next blank line.
const gitignoreBinaries = "# binaries `go build ./cmd/<name>` leaves in the repo root"

// TestDocsNameExistingCommands fails when a document names a command that
// cmd/ no longer holds, or when .gitignore's binary block does not list
// exactly the commands cmd/ holds: a deleted command must leave the docs
// with its directory.
func TestDocsNameExistingCommands(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var commands []string
	exists := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() {
			commands = append(commands, e.Name())
			exists[e.Name()] = true
		}
	}

	token := regexp.MustCompile(`\bcmd/([a-z0-9][a-z0-9_-]*)`)
	for _, doc := range commandDocs {
		raw, err := os.ReadFile(filepath.FromSlash(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range token.FindAllStringSubmatch(string(raw), -1) {
			if !exists[m[1]] {
				t.Errorf("%s names cmd/%s, which is not a directory under cmd/", doc, m[1])
			}
		}
	}

	raw, err := os.ReadFile(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	_, block, found := strings.Cut(string(raw), gitignoreBinaries+"\n")
	if !found {
		t.Fatalf(".gitignore has no line %q", gitignoreBinaries)
	}
	block, _, _ = strings.Cut(block, "\n\n")
	var ignored []string
	for _, line := range strings.Split(strings.TrimSpace(block), "\n") {
		ignored = append(ignored, strings.TrimPrefix(line, "/"))
	}
	sort.Strings(ignored)
	if strings.Join(ignored, " ") != strings.Join(commands, " ") {
		t.Errorf(".gitignore's binary block lists %v, cmd/ holds %v", ignored, commands)
	}
}
