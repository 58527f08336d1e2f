// Package livermore provides the first fourteen Livermore Loop kernels
// (paper §5, Table 4) in Marion's C subset, together with Go reference
// implementations that replicate the exact operation order, so compiled
// results can be checked bit-for-bit (both sides are IEEE double).
//
// Each kernel exposes two C functions: init() prepares the global data
// and kern(loop) runs the kernel `loop` times, returning a checksum.
package livermore

// Kernel is one Livermore loop.
type Kernel struct {
	ID     int
	Name   string
	Source string
	// Ref computes the reference checksum for a given loop count.
	Ref func(loop int) float64
}

// Kernels holds loops 1-14 in order.
var Kernels = []Kernel{k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13, k14}

// ---------------------------------------------------------------------
// Kernel 1 — hydro fragment.

var k1 = Kernel{
	ID: 1, Name: "hydro fragment",
	Source: `
double x1a[1001], y1a[1001], z1a[1011];
void init() {
    int k;
    for (k = 0; k < 1001; k++) { x1a[k] = 0.0; y1a[k] = 0.0001 * (k + 1); }
    for (k = 0; k < 1011; k++) z1a[k] = 0.0002 * (k + 1);
}
double kern(int loop) {
    int l, k;
    double q = 1.5, r = 0.25, t = 0.5, s = 0.0;
    for (l = 0; l < loop; l++)
        for (k = 0; k < 400; k++)
            x1a[k] = q + y1a[k] * (r * z1a[k + 10] + t * z1a[k + 11]);
    for (k = 0; k < 400; k++) s = s + x1a[k];
    return s;
}`,
	Ref: func(loop int) float64 {
		x := make([]float64, 1001)
		y := make([]float64, 1001)
		z := make([]float64, 1011)
		for k := 0; k < 1001; k++ {
			y[k] = 0.0001 * float64(k+1)
		}
		for k := 0; k < 1011; k++ {
			z[k] = 0.0002 * float64(k+1)
		}
		q, r, t := 1.5, 0.25, 0.5
		for l := 0; l < loop; l++ {
			for k := 0; k < 400; k++ {
				x[k] = q + y[k]*(r*z[k+10]+t*z[k+11])
			}
		}
		s := 0.0
		for k := 0; k < 400; k++ {
			s += x[k]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 2 — ICCG excerpt (incomplete Cholesky conjugate gradient).

var k2 = Kernel{
	ID: 2, Name: "ICCG excerpt",
	Source: `
double x2a[1001], v2a[1001];
void init() {
    int k;
    for (k = 0; k < 1001; k++) {
        x2a[k] = 0.001 * (k + 1);
        v2a[k] = 0.0005 * (k + 2);
    }
}
double kern(int loop) {
    int l, k, ii, ipnt, ipntp, i;
    double s = 0.0;
    for (l = 0; l < loop; l++) {
        ii = 500; ipntp = 0;
        do {
            ipnt = ipntp;
            ipntp = ipntp + ii;
            ii = ii / 2;
            i = ipntp;
            for (k = ipnt + 1; k < ipntp; k = k + 2) {
                i = i + 1;
                x2a[i] = x2a[k] - v2a[k] * x2a[k - 1] - v2a[k + 1] * x2a[k + 1];
            }
        } while (ii > 0);
    }
    for (k = 0; k < 1001; k++) s = s + x2a[k];
    return s;
}`,
	Ref: func(loop int) float64 {
		x := make([]float64, 1001)
		v := make([]float64, 1001)
		for k := 0; k < 1001; k++ {
			x[k] = 0.001 * float64(k+1)
			v[k] = 0.0005 * float64(k+2)
		}
		for l := 0; l < loop; l++ {
			ii, ipntp := 500, 0
			for {
				ipnt := ipntp
				ipntp += ii
				ii /= 2
				i := ipntp
				for k := ipnt + 1; k < ipntp; k += 2 {
					i++
					x[i] = x[k] - v[k]*x[k-1] - v[k+1]*x[k+1]
				}
				if ii <= 0 {
					break
				}
			}
		}
		s := 0.0
		for k := 0; k < 1001; k++ {
			s += x[k]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 3 — inner product.

var k3 = Kernel{
	ID: 3, Name: "inner product",
	Source: `
double x3a[1001], z3a[1001];
void init() {
    int k;
    for (k = 0; k < 1001; k++) {
        x3a[k] = 0.0001 * (k + 1);
        z3a[k] = 0.0002 * (k + 3);
    }
}
double kern(int loop) {
    int l, k;
    double q = 0.0;
    for (l = 0; l < loop; l++)
        for (k = 0; k < 1001; k++)
            q = q + z3a[k] * x3a[k];
    return q;
}`,
	Ref: func(loop int) float64 {
		x := make([]float64, 1001)
		z := make([]float64, 1001)
		for k := 0; k < 1001; k++ {
			x[k] = 0.0001 * float64(k+1)
			z[k] = 0.0002 * float64(k+3)
		}
		q := 0.0
		for l := 0; l < loop; l++ {
			for k := 0; k < 1001; k++ {
				q += z[k] * x[k]
			}
		}
		return q
	},
}

// ---------------------------------------------------------------------
// Kernel 4 — banded linear equations.

var k4 = Kernel{
	ID: 4, Name: "banded linear equations",
	Source: `
double x4a[1001], y4a[1001];
void init() {
    int k;
    for (k = 0; k < 1001; k++) {
        x4a[k] = 0.001 * (k + 1);
        y4a[k] = 0.0015 * (k + 2);
    }
}
double kern(int loop) {
    int l, k, j, lw;
    double temp, s = 0.0;
    for (l = 0; l < loop; l++) {
        for (k = 6; k < 1000; k += 200) {
            lw = k - 6;
            temp = x4a[k - 1];
            for (j = 4; j < 400; j += 5) {
                temp = temp - x4a[lw] * y4a[j];
                lw = lw + 1;
            }
            x4a[k - 1] = y4a[4] * temp;
        }
    }
    for (k = 0; k < 1001; k++) s = s + x4a[k];
    return s;
}`,
	Ref: func(loop int) float64 {
		x := make([]float64, 1001)
		y := make([]float64, 1001)
		for k := 0; k < 1001; k++ {
			x[k] = 0.001 * float64(k+1)
			y[k] = 0.0015 * float64(k+2)
		}
		for l := 0; l < loop; l++ {
			for k := 6; k < 1000; k += 200 {
				lw := k - 6
				temp := x[k-1]
				for j := 4; j < 400; j += 5 {
					temp -= x[lw] * y[j]
					lw++
				}
				x[k-1] = y[4] * temp
			}
		}
		s := 0.0
		for k := 0; k < 1001; k++ {
			s += x[k]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 5 — tri-diagonal elimination, below diagonal (recurrence).

var k5 = Kernel{
	ID: 5, Name: "tri-diagonal elimination",
	Source: `
double x5a[1001], y5a[1001], z5a[1001];
void init() {
    int k;
    for (k = 0; k < 1001; k++) {
        x5a[k] = 0.0;
        y5a[k] = 0.0001 * (k + 1);
        z5a[k] = 0.00015 * (k + 2);
    }
}
double kern(int loop) {
    int l, i;
    double s = 0.0;
    for (l = 0; l < loop; l++)
        for (i = 1; i < 1000; i++)
            x5a[i] = z5a[i] * (y5a[i] - x5a[i - 1]);
    for (i = 0; i < 1001; i++) s = s + x5a[i];
    return s;
}`,
	Ref: func(loop int) float64 {
		x := make([]float64, 1001)
		y := make([]float64, 1001)
		z := make([]float64, 1001)
		for k := 0; k < 1001; k++ {
			y[k] = 0.0001 * float64(k+1)
			z[k] = 0.00015 * float64(k+2)
		}
		for l := 0; l < loop; l++ {
			for i := 1; i < 1000; i++ {
				x[i] = z[i] * (y[i] - x[i-1])
			}
		}
		s := 0.0
		for i := 0; i < 1001; i++ {
			s += x[i]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 6 — general linear recurrence equations.

var k6 = Kernel{
	ID: 6, Name: "linear recurrence",
	Source: `
double w6a[101], b6a[64][64];
void init() {
    int i, k;
    for (i = 0; i < 101; i++) w6a[i] = 0.0;
    for (i = 0; i < 64; i++)
        for (k = 0; k < 64; k++)
            b6a[i][k] = 0.0001 * (i + k + 2);
}
double kern(int loop) {
    int l, i, k;
    double s = 0.0;
    for (l = 0; l < loop; l++) {
        for (i = 1; i < 60; i++) {
            w6a[i] = 0.0100;
            for (k = 0; k < i; k++)
                w6a[i] = w6a[i] + b6a[k][i] * w6a[(i - k) - 1];
        }
    }
    for (i = 0; i < 101; i++) s = s + w6a[i];
    return s;
}`,
	Ref: func(loop int) float64 {
		w := make([]float64, 101)
		var b [64][64]float64
		for i := 0; i < 64; i++ {
			for k := 0; k < 64; k++ {
				b[i][k] = 0.0001 * float64(i+k+2)
			}
		}
		for l := 0; l < loop; l++ {
			for i := 1; i < 60; i++ {
				w[i] = 0.0100
				for k := 0; k < i; k++ {
					w[i] = w[i] + b[k][i]*w[(i-k)-1]
				}
			}
		}
		s := 0.0
		for i := 0; i < 101; i++ {
			s += w[i]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 7 — equation of state fragment.

var k7 = Kernel{
	ID: 7, Name: "equation of state",
	Source: `
double x7a[1001], y7a[1001], z7a[1001], u7a[1007];
void init() {
    int k;
    for (k = 0; k < 1001; k++) {
        x7a[k] = 0.0;
        y7a[k] = 0.0001 * (k + 1);
        z7a[k] = 0.0002 * (k + 2);
    }
    for (k = 0; k < 1007; k++) u7a[k] = 0.00015 * (k + 3);
}
double kern(int loop) {
    int l, k;
    double q = 0.5, r = 0.25, t = 0.125, s = 0.0;
    for (l = 0; l < loop; l++) {
        for (k = 0; k < 300; k++) {
            x7a[k] = u7a[k] + r * (z7a[k] + r * y7a[k]) +
                t * (u7a[k + 3] + r * (u7a[k + 2] + r * u7a[k + 1]) +
                     t * (u7a[k + 6] + q * (u7a[k + 5] + q * u7a[k + 4])));
        }
    }
    for (k = 0; k < 300; k++) s = s + x7a[k];
    return s;
}`,
	Ref: func(loop int) float64 {
		x := make([]float64, 1001)
		y := make([]float64, 1001)
		z := make([]float64, 1001)
		u := make([]float64, 1007)
		for k := 0; k < 1001; k++ {
			y[k] = 0.0001 * float64(k+1)
			z[k] = 0.0002 * float64(k+2)
		}
		for k := 0; k < 1007; k++ {
			u[k] = 0.00015 * float64(k+3)
		}
		q, r, t := 0.5, 0.25, 0.125
		for l := 0; l < loop; l++ {
			for k := 0; k < 300; k++ {
				x[k] = u[k] + r*(z[k]+r*y[k]) +
					t*(u[k+3]+r*(u[k+2]+r*u[k+1])+
						t*(u[k+6]+q*(u[k+5]+q*u[k+4])))
			}
		}
		s := 0.0
		for k := 0; k < 300; k++ {
			s += x[k]
		}
		return s
	},
}
