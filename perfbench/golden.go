package main

// goldenDigests are serve.Digest values of the solve-paper workload's
// first jobs at the default seed: one rotation of its cases, software
// baseline then RSU-G1, each on segmentation, stereo and motion.
var goldenDigests = []string{
	"0c04ef4a7364d70fe2b95e902067a9e296f50bf9c70c7526f4dd4062fd6e92df",
	"8d0178a81ce79792d7bc8a0c739fcfa37cd26c2cf83fd29257909c6cb6aeaa83",
	"f75e0d16eb76671bd87fdab418e2a6e5e9d4b419071ff7276074bbe02afc0702",
	"c578edb9af959191e4e9281590110b53933a33f16f9802a7e387116a6893f80a",
	"e774f8e8bfbbb223f0f4bbfd11ff8c76de2927ebfaa32232fd6d2193c1392da3",
	"43b347850286a8feb5853a4553bfab5f902b2a6e9e97626332977955ead5f8ec",
}
