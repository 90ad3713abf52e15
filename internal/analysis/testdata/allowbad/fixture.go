// Package allowbad holds a //dbvet:allow directive with no reason. The
// directive test asserts (by direct diagnostic inspection — a want
// comment cannot be embedded, since any trailing text would become the
// reason) that the malformed directive is reported and does not
// suppress the violation it sits on.
package allowbad

import "os"

func terse(path string) ([]byte, error) {
	//dbvet:allow iopath
	return os.ReadFile(path)
}
