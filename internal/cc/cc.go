package cc

// Compile parses and type-checks a translation unit.
func Compile(file, src string) (*File, error) {
	f, err := parse(file, src)
	if err != nil {
		return nil, err
	}
	if err := check(f); err != nil {
		return nil, err
	}
	return f, nil
}
