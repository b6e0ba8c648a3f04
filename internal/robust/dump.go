package robust

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteDump writes a diagnostic dump to path, creating the parent
// directory if needed. Used for watchdog and signal-handler dumps whose
// destination directory may not exist yet.
func WriteDump(path, contents string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("robust: creating dump directory: %w", err)
		}
	}
	if err := os.WriteFile(path, []byte(contents), 0o644); err != nil {
		return fmt.Errorf("robust: writing dump: %w", err)
	}
	return nil
}

// PublishFile durably and atomically replaces the file at path with
// data: the parent directory is created if needed, the bytes go to a
// temporary file which is fsynced before a rename publishes it, and the
// directory is fsynced after, so neither a crash mid-write nor a power
// cut right after the rename leaves a partial or vanishing file at
// path. The temporary file is removed on every error path. Errors are
// the os package's own, which name the operation and the path.
func PublishFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Best-effort: some filesystems refuse to sync directories, and the
	// rename is already atomic — durability of the entry is all a failure
	// here can cost.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
