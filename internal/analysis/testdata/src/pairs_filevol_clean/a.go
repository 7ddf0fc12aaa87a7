// Package pairs_filevol_clean holds correct file-volume lifecycle
// handling the pairs analyzer must accept without diagnostics.
package pairs_filevol_clean

import (
	"errors"

	"disk"
)

// closesOnSetupError closes the volume before failing.
func closesOnSetupError(path string, ready bool) (*disk.FileVolume, error) {
	v, err := disk.OpenFileVolume(path, disk.FileOptions{})
	if err != nil {
		return nil, err
	}
	if !ready {
		_ = v.Close()
		return nil, errors.New("not ready")
	}
	return v, nil
}

// retriesWithoutDirect reopens a volume whose direct open failed.  The
// second test of err is the first open's guard on the path that skipped
// the retry, which never wrote err.
func retriesWithoutDirect(path string, direct bool) (*disk.FileVolume, error) {
	v, err := disk.OpenFileVolume(path, disk.FileOptions{Direct: direct})
	if err != nil && direct {
		v, err = disk.OpenFileVolume(path, disk.FileOptions{})
	}
	if err != nil {
		return nil, err
	}
	return v, nil
}

// closesFirstOnSecondFailure is the two-volume constructor done
// right: the data volume is closed when the log volume fails.
func closesFirstOnSecondFailure(dataPath, logPath string) (*disk.FileVolume, *disk.FileVolume, error) {
	dv, err := disk.CreateFileVolume(dataPath, 512, 64, disk.FileOptions{})
	if err != nil {
		return nil, nil, err
	}
	lv, err := disk.CreateFileVolume(logPath, 512, 16, disk.FileOptions{})
	if err != nil {
		_ = dv.Close()
		return nil, nil, err
	}
	return dv, lv, nil
}

// transferredBeforeFailure hands the volume off (a use) before the
// fallible step; the new owner's Close path carries the release.
func transferredBeforeFailure(path string, ready bool) error {
	v, err := disk.CreateFileVolume(path, 512, 64, disk.FileOptions{})
	if err != nil {
		return err
	}
	if err := v.WritePages(0, 1, make([]byte, 512)); err != nil {
		return err
	}
	if !ready {
		return errors.New("not ready")
	}
	return nil
}

// successReturnsOwnership returns the open volume to the caller; a
// non-error exit never reports.
func successReturnsOwnership(path string) (*disk.FileVolume, error) {
	v, err := disk.OpenFileVolume(path, disk.FileOptions{})
	if err != nil {
		return nil, err
	}
	return v, nil
}
