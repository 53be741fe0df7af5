package main

// pinKey names one pinned panel hash.
type pinKey struct {
	seed  int64
	panel string
}

// pinnedHashes are the SHA-256 of each figures panel's CSV, exactly as
// `emxbench -fig <panel> -scale 4096 -seed <seed> -format csv` prints
// it, for the seeds the benchmark ships hashes for. Any other seed is
// checked by a Verify re-run instead (see verifyPanels).
var pinnedHashes = map[pinKey]string{
	{1, "6b"}:  "1c2dfb342ed955c2f5731434dc522822fcae92a223b8875d6a4250d615eb0fa0",
	{2, "6b"}:  "3d422886b56bac265429f4835d1d2edac44dc3ac978acf1ea05469e0e8d36bcf",
	{3, "6b"}:  "ea9ff93f06e9f93feb2b3161a761112e5ecf57da7a9c54f79dbaa3ab0e20af04",
	{4, "6b"}:  "ec542a45c6f70c20b6225e546bebfb8451f155b862a2775147e7f9cf7f0d8e20",
	{5, "6b"}:  "ad91ebf56c85c3c9fa6b718dc4e728477d69bb468abe2e70ef75fc38336d80ed",
	{6, "6b"}:  "70d6a1a3ede02376cc9a050d0954fd3024dffe57d60be1adc2fd7a24c51797b3",
	{7, "6b"}:  "376262083d85d3bbc536ce0b161d0b1877f5adda9c69b607f6d636ecc9126419",
	{8, "6b"}:  "eedc34aa58f7bc48ea5ae098adb4987ec416559b484841a8207359a2197617d0",
	{9, "6b"}:  "d6dcae26eefac3d0756643654f298ddf2cededdf812ec99f48b0c812fea1517d",
	{10, "6b"}: "44fe992898bd2e629c7906fdcb444145ebecc07a3c34264a1ea174e194368140",
	// FFT communication time does not depend on the input values, so
	// 6d reads the same for every seed.
	{1, "6d"}:  fig6d,
	{2, "6d"}:  fig6d,
	{3, "6d"}:  fig6d,
	{4, "6d"}:  fig6d,
	{5, "6d"}:  fig6d,
	{6, "6d"}:  fig6d,
	{7, "6d"}:  fig6d,
	{8, "6d"}:  fig6d,
	{9, "6d"}:  fig6d,
	{10, "6d"}: fig6d,
}

const fig6d = "18c1fb64694c7ca0b7900d0312f68a5c2b5368e88c8182d38b7f572b2ec8bcc7"

// hasPins reports whether every figures panel has a pinned hash for seed.
func hasPins(seed int64) bool {
	for _, p := range figPanels {
		if _, ok := pinnedHashes[pinKey{seed, p}]; !ok {
			return false
		}
	}
	return true
}
