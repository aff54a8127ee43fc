// Package stale pins stale-suppression reporting: a justified
// directive for an analyzer in the run set that suppresses nothing is
// itself reported.
package stale

import "time"

func zero() time.Time {
	//nslint:disable determinism -- legacy shim kept after the clock call was removed // want `stale suppression`
	return time.Time{}
}
