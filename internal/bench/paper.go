package bench

// The published reference values of the VDom paper's evaluation (ASPLOS
// 2023), encoded so the harness can print measured-vs-paper deviations
// automatically. Table values are exact; figure values are read off the
// charts and therefore approximate.

// paperTable3 maps each Table 3 operation to its [X86, ARM] cycles.
var paperTable3 = map[string][2]float64{
	"empty API call return":           {6.7, 16.5},
	"empty syscall return":            {173.4, 268.3},
	"update PKRU or DACR":             {25.6, 18.1},
	"VMFUNC":                          {169, 0},
	"fast wrvdr API call return":      {68.8, 406},
	"secure wrvdr API call return":    {104, 406},
	"secure wrvdr with 4KB eviction":  {1639, 2274},
	"secure wrvdr with 2MB eviction":  {1605, 3159},
	"secure wrvdr with 64MB eviction": {8097, 11778},
	"secure wrvdr with VDS switch":    {583, 723},
}

// paperTable4 holds Table 4's rows at the vdom counts of table4Counts;
// NaN-like zeros mark the cells the paper prints as "NA".
var paperTable4 = map[string][8]float64{
	"VDom X86f seq":  {70, 73, 82, 151, 121, 141, 138, 134},
	"VDom X86f trig": {70, 75, 82, 530, 552, 566, 704, 701},
	"VDom X86s seq":  {107, 104, 113, 183, 152, 171, 161, 166},
	"VDom X86s trig": {105, 106, 113, 573, 611, 623, 771, 765},
	"VDom X86e seq":  {69, 70, 82, 301, 1565, 1594, 1598, 1605},
	"libmpk seq":     {102, 103, 150, 30609, 30909, 30877, 30721, 30704},
	"EPK seq":        {97, 97, 101, 111, 0, 115, 162, 0},
	"EPK trig":       {97, 97, 101, 0, 0, 350, 830, 830},
	"VDom ARM seq":   {406, 423, 491, 486, 536, 480, 490, 533},
	"VDom ARM trig":  {408, 433, 668, 662, 695, 714, 779, 811},
	"VDom ARMe seq":  {408, 421, 1613, 1895, 3137, 3161, 3187, 3185},
}

// paperTable5 holds Table 5's overheads (%) for 2/4/8/16/32 VDSes; <0
// marks "undefined".
var paperTable5 = map[string][5]float64{
	"X86": {3.8, 8.9, 20.9, 38.8, 56.1},
	"ARM": {19.7, 33.8, -1, -1, -1},
}

// paperHeadlines are the single-number claims of §7 with their source.
var paperHeadlines = []struct {
	Name  string
	Value float64
	Unit  string
}{
	{"httpd VDom overhead X86 1KB", 0.12, "%"},
	{"httpd VDom overhead X86 128KB", 2.18, "%"},
	{"httpd VDom overhead ARM max", 2.65, "%"},
	{"MySQL VDom overhead X86", 0.47, "%"},
	{"MySQL VDom overhead ARM", 2.59, "%"},
	{"MySQL EPK overhead X86", 7.33, "%"},
	{"PMO lowerbound X86", 2.06, "%"},
	{"PMO VDS switch X86", 7.03, "%"},
	{"PMO eviction X86", 16.21, "%"},
	{"PMO EPK X86", 8.71, "%"},
	{"PMO libmpk 2MB 1 thread", 17.73, "%"},
	{"PMO libmpk 2MB 8 threads", 977.77, "%"},
	{"PMO libmpk 4KB 8 threads", 3941.95, "%"},
	{"switch_mm slowdown X86", 6.0, "%"},
	{"switch_mm slowdown ARM", 7.63, "%"},
	{"VDS context switch X86", 771.7, "cycles"},
	{"VDS context switch ARM", 1545.1, "cycles"},
}
