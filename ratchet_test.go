package lmas_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxPanics is the number of panic( sites allowed in non-test Go under
// internal/. Input a caller can get wrong is an error, not a panic, so this
// number only goes down: lower it when a change removes sites, and raise it
// only with the reason the new site is unreachable from input.
const maxPanics = 41

func TestPanicSitesDoNotGrow(t *testing.T) {
	n := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		n += strings.Count(string(src), "panic(")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n > maxPanics {
		t.Errorf("%d panic( sites in non-test internal/ code, at most %d allowed: return an error instead", n, maxPanics)
	}
}
