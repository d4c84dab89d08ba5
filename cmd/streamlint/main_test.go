package main

import (
	"path/filepath"
	"testing"
)

func TestMatchesAny(t *testing.T) {
	root := filepath.FromSlash("/mod")
	dir := func(rel string) string { return filepath.Join(root, filepath.FromSlash(rel)) }
	for _, tc := range []struct {
		patterns []string
		dir      string
		want     bool
	}{
		{nil, "internal/shard", true},
		{[]string{"./internal/shard"}, "internal/shard", true},
		{[]string{"./internal/shard/"}, "internal/shard", true}, // trailing slash
		{[]string{"internal/shard/"}, "internal/shard", true},
		{[]string{"./internal/shard/"}, "internal/shard/sub", false},
		{[]string{"./internal/shard"}, "internal/shardx", false},
		{[]string{"./..."}, ".", true},
		{[]string{"./..."}, "internal/shard", true},
		{[]string{"."}, ".", true},
		{[]string{"./"}, ".", true},
		{[]string{"."}, "internal/shard", false},
		{[]string{"./internal/..."}, "internal", true}, // a subtree
		{[]string{"./internal/..."}, "internal/shard/sub", true},
		{[]string{"./internal/..."}, "internal2", false},
		{[]string{"./internal/..."}, "cmd/streamlint", false},
		{[]string{"./no/such/dir"}, "internal/shard", false}, // no match
		{[]string{"./no/such/dir", "./cmd/..."}, "cmd/streamlint", true},
	} {
		if got := matchesAny(root, dir(tc.dir), tc.patterns); got != tc.want {
			t.Errorf("matchesAny(%q, %q) = %v, want %v", tc.dir, tc.patterns, got, tc.want)
		}
	}
}
