package livermore

// ---------------------------------------------------------------------
// Kernel 8 — ADI integration.

var k8 = Kernel{
	ID: 8, Name: "ADI integration",
	Source: `
double u1a[2][101][5], u2a[2][101][5], u3a[2][101][5];
double du1a[101], du2a[101], du3a[101];
void init() {
    int n, ky, kx;
    for (n = 0; n < 2; n++)
        for (ky = 0; ky < 101; ky++)
            for (kx = 0; kx < 5; kx++) {
                u1a[n][ky][kx] = 0.0001 * (n + ky + kx + 1);
                u2a[n][ky][kx] = 0.00013 * (n + ky + kx + 2);
                u3a[n][ky][kx] = 0.00017 * (n + ky + kx + 3);
            }
}
double kern(int loop) {
    int l, kx, ky;
    double a11 = 0.50, a12 = 0.33, a13 = 0.25, a21 = 0.20, a22 = 0.16,
           a23 = 0.14, a31 = 0.12, a32 = 0.11, a33 = 0.10, sig = 0.05;
    double s = 0.0;
    for (l = 0; l < loop; l++) {
        for (kx = 1; kx < 4; kx++) {
            for (ky = 1; ky < 100; ky++) {
                du1a[ky] = u1a[0][ky + 1][kx] - u1a[0][ky - 1][kx];
                du2a[ky] = u2a[0][ky + 1][kx] - u2a[0][ky - 1][kx];
                du3a[ky] = u3a[0][ky + 1][kx] - u3a[0][ky - 1][kx];
                u1a[1][ky][kx] = u1a[0][ky][kx] + a11 * du1a[ky] + a12 * du2a[ky] + a13 * du3a[ky]
                    + sig * (u1a[0][ky][kx + 1] - 2.0 * u1a[0][ky][kx] + u1a[0][ky][kx - 1]);
                u2a[1][ky][kx] = u2a[0][ky][kx] + a21 * du1a[ky] + a22 * du2a[ky] + a23 * du3a[ky]
                    + sig * (u2a[0][ky][kx + 1] - 2.0 * u2a[0][ky][kx] + u2a[0][ky][kx - 1]);
                u3a[1][ky][kx] = u3a[0][ky][kx] + a31 * du1a[ky] + a32 * du2a[ky] + a33 * du3a[ky]
                    + sig * (u3a[0][ky][kx + 1] - 2.0 * u3a[0][ky][kx] + u3a[0][ky][kx - 1]);
            }
        }
    }
    for (ky = 0; ky < 101; ky++)
        for (kx = 0; kx < 5; kx++)
            s = s + u1a[1][ky][kx] + u2a[1][ky][kx] + u3a[1][ky][kx];
    return s;
}`,
	Ref: func(loop int) float64 {
		var u1, u2, u3 [2][101][5]float64
		var du1, du2, du3 [101]float64
		for n := 0; n < 2; n++ {
			for ky := 0; ky < 101; ky++ {
				for kx := 0; kx < 5; kx++ {
					u1[n][ky][kx] = 0.0001 * float64(n+ky+kx+1)
					u2[n][ky][kx] = 0.00013 * float64(n+ky+kx+2)
					u3[n][ky][kx] = 0.00017 * float64(n+ky+kx+3)
				}
			}
		}
		a11, a12, a13, a21, a22, a23, a31, a32, a33, sig :=
			0.50, 0.33, 0.25, 0.20, 0.16, 0.14, 0.12, 0.11, 0.10, 0.05
		for l := 0; l < loop; l++ {
			for kx := 1; kx < 4; kx++ {
				for ky := 1; ky < 100; ky++ {
					du1[ky] = u1[0][ky+1][kx] - u1[0][ky-1][kx]
					du2[ky] = u2[0][ky+1][kx] - u2[0][ky-1][kx]
					du3[ky] = u3[0][ky+1][kx] - u3[0][ky-1][kx]
					u1[1][ky][kx] = u1[0][ky][kx] + a11*du1[ky] + a12*du2[ky] + a13*du3[ky] +
						sig*(u1[0][ky][kx+1]-2.0*u1[0][ky][kx]+u1[0][ky][kx-1])
					u2[1][ky][kx] = u2[0][ky][kx] + a21*du1[ky] + a22*du2[ky] + a23*du3[ky] +
						sig*(u2[0][ky][kx+1]-2.0*u2[0][ky][kx]+u2[0][ky][kx-1])
					u3[1][ky][kx] = u3[0][ky][kx] + a31*du1[ky] + a32*du2[ky] + a33*du3[ky] +
						sig*(u3[0][ky][kx+1]-2.0*u3[0][ky][kx]+u3[0][ky][kx-1])
				}
			}
		}
		s := 0.0
		for ky := 0; ky < 101; ky++ {
			for kx := 0; kx < 5; kx++ {
				s += u1[1][ky][kx] + u2[1][ky][kx] + u3[1][ky][kx]
			}
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 9 — integrate predictors.

var k9 = Kernel{
	ID: 9, Name: "integrate predictors",
	Source: `
double px9a[101][13];
void init() {
    int i, j;
    for (i = 0; i < 101; i++)
        for (j = 0; j < 13; j++)
            px9a[i][j] = 0.0001 * (i + j + 1);
}
double kern(int loop) {
    int l, i;
    double dm22 = 0.02, dm23 = 0.03, dm24 = 0.04, dm25 = 0.05,
           dm26 = 0.06, dm27 = 0.07, dm28 = 0.08, c0 = 0.5;
    double s = 0.0;
    for (l = 0; l < loop; l++) {
        for (i = 0; i < 101; i++) {
            px9a[i][0] = dm28 * px9a[i][12] + dm27 * px9a[i][11] + dm26 * px9a[i][10] +
                dm25 * px9a[i][9] + dm24 * px9a[i][8] + dm23 * px9a[i][7] +
                dm22 * px9a[i][6] + c0 * (px9a[i][4] + px9a[i][5]) + px9a[i][2];
        }
    }
    for (i = 0; i < 101; i++) s = s + px9a[i][0];
    return s;
}`,
	Ref: func(loop int) float64 {
		var px [101][13]float64
		for i := 0; i < 101; i++ {
			for j := 0; j < 13; j++ {
				px[i][j] = 0.0001 * float64(i+j+1)
			}
		}
		dm22, dm23, dm24, dm25, dm26, dm27, dm28, c0 :=
			0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.5
		for l := 0; l < loop; l++ {
			for i := 0; i < 101; i++ {
				px[i][0] = dm28*px[i][12] + dm27*px[i][11] + dm26*px[i][10] +
					dm25*px[i][9] + dm24*px[i][8] + dm23*px[i][7] +
					dm22*px[i][6] + c0*(px[i][4]+px[i][5]) + px[i][2]
			}
		}
		s := 0.0
		for i := 0; i < 101; i++ {
			s += px[i][0]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 10 — difference predictors.

var k10 = Kernel{
	ID: 10, Name: "difference predictors",
	Source: `
double px10a[101][14], cx10a[101][14];
void init() {
    int i, j;
    for (i = 0; i < 101; i++)
        for (j = 0; j < 14; j++) {
            px10a[i][j] = 0.0001 * (i + j + 1);
            cx10a[i][j] = 0.00013 * (i + j + 2);
        }
}
double kern(int loop) {
    int l, i;
    double ar, br, cr, s = 0.0;
    for (l = 0; l < loop; l++) {
        for (i = 0; i < 101; i++) {
            ar = cx10a[i][4];
            br = ar - px10a[i][4]; px10a[i][4] = ar;
            cr = br - px10a[i][5]; px10a[i][5] = br;
            ar = cr - px10a[i][6]; px10a[i][6] = cr;
            br = ar - px10a[i][7]; px10a[i][7] = ar;
            cr = br - px10a[i][8]; px10a[i][8] = br;
            ar = cr - px10a[i][9]; px10a[i][9] = cr;
            br = ar - px10a[i][10]; px10a[i][10] = ar;
            cr = br - px10a[i][11]; px10a[i][11] = br;
            px10a[i][13] = cr - px10a[i][12];
            px10a[i][12] = cr;
        }
    }
    for (i = 0; i < 101; i++) s = s + px10a[i][12] + px10a[i][13];
    return s;
}`,
	Ref: func(loop int) float64 {
		var px, cx [101][14]float64
		for i := 0; i < 101; i++ {
			for j := 0; j < 14; j++ {
				px[i][j] = 0.0001 * float64(i+j+1)
				cx[i][j] = 0.00013 * float64(i+j+2)
			}
		}
		for l := 0; l < loop; l++ {
			for i := 0; i < 101; i++ {
				ar := cx[i][4]
				br := ar - px[i][4]
				px[i][4] = ar
				cr := br - px[i][5]
				px[i][5] = br
				ar = cr - px[i][6]
				px[i][6] = cr
				br = ar - px[i][7]
				px[i][7] = ar
				cr = br - px[i][8]
				px[i][8] = br
				ar = cr - px[i][9]
				px[i][9] = cr
				br = ar - px[i][10]
				px[i][10] = ar
				cr = br - px[i][11]
				px[i][11] = br
				px[i][13] = cr - px[i][12]
				px[i][12] = cr
			}
		}
		s := 0.0
		for i := 0; i < 101; i++ {
			s += px[i][12] + px[i][13]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 11 — first sum.

var k11 = Kernel{
	ID: 11, Name: "first sum",
	Source: `
double x11a[1001], y11a[1001];
void init() {
    int k;
    for (k = 0; k < 1001; k++) {
        x11a[k] = 0.0;
        y11a[k] = 0.0001 * (k + 1);
    }
}
double kern(int loop) {
    int l, k;
    double s = 0.0;
    for (l = 0; l < loop; l++) {
        x11a[0] = y11a[0];
        for (k = 1; k < 1000; k++)
            x11a[k] = x11a[k - 1] + y11a[k];
    }
    for (k = 0; k < 1000; k++) s = s + x11a[k];
    return s;
}`,
	Ref: func(loop int) float64 {
		x := make([]float64, 1001)
		y := make([]float64, 1001)
		for k := 0; k < 1001; k++ {
			y[k] = 0.0001 * float64(k+1)
		}
		for l := 0; l < loop; l++ {
			x[0] = y[0]
			for k := 1; k < 1000; k++ {
				x[k] = x[k-1] + y[k]
			}
		}
		s := 0.0
		for k := 0; k < 1000; k++ {
			s += x[k]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 12 — first difference.

var k12 = Kernel{
	ID: 12, Name: "first difference",
	Source: `
double x12a[1001], y12a[1002];
void init() {
    int k;
    for (k = 0; k < 1001; k++) x12a[k] = 0.0;
    for (k = 0; k < 1002; k++) y12a[k] = 0.0001 * (k + 1) * (k % 7 + 1);
}
double kern(int loop) {
    int l, k;
    double s = 0.0;
    for (l = 0; l < loop; l++)
        for (k = 0; k < 1000; k++)
            x12a[k] = y12a[k + 1] - y12a[k];
    for (k = 0; k < 1000; k++) s = s + x12a[k];
    return s;
}`,
	Ref: func(loop int) float64 {
		x := make([]float64, 1001)
		y := make([]float64, 1002)
		for k := 0; k < 1002; k++ {
			y[k] = 0.0001 * float64(k+1) * float64(k%7+1)
		}
		for l := 0; l < loop; l++ {
			for k := 0; k < 1000; k++ {
				x[k] = y[k+1] - y[k]
			}
		}
		s := 0.0
		for k := 0; k < 1000; k++ {
			s += x[k]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 13 — 2-D particle in cell.

var k13 = Kernel{
	ID: 13, Name: "2-D particle in cell",
	Source: `
double p13a[64][4], b13a[32][32], c13a[32][32], h13a[32][32], y13a[96];
int e13a[96], f13a[96];
void init() {
    int i, j;
    for (i = 0; i < 64; i++) {
        p13a[i][0] = 1.0 + i % 13;
        p13a[i][1] = 2.0 + i % 11;
        p13a[i][2] = 0.5;
        p13a[i][3] = 0.25;
    }
    for (i = 0; i < 32; i++)
        for (j = 0; j < 32; j++) {
            b13a[i][j] = 0.01 * (i + j + 1);
            c13a[i][j] = 0.02 * (i + j + 2);
            h13a[i][j] = 0.0;
        }
    for (i = 0; i < 96; i++) {
        y13a[i] = 0.1 * (i % 9);
        e13a[i] = i % 3;
        f13a[i] = i % 5;
    }
}
double kern(int loop) {
    int l, ip, i1, j1, i2, j2;
    double s = 0.0;
    for (l = 0; l < loop; l++) {
        for (ip = 0; ip < 64; ip++) {
            i1 = (int) p13a[ip][0];
            j1 = (int) p13a[ip][1];
            i1 = i1 & 31;
            j1 = j1 & 31;
            p13a[ip][2] = p13a[ip][2] + b13a[j1][i1];
            p13a[ip][3] = p13a[ip][3] + c13a[j1][i1];
            p13a[ip][0] = p13a[ip][0] + p13a[ip][2];
            p13a[ip][1] = p13a[ip][1] + p13a[ip][3];
            i2 = (int) p13a[ip][0];
            j2 = (int) p13a[ip][1];
            i2 = i2 & 31;
            j2 = j2 & 31;
            p13a[ip][0] = p13a[ip][0] + y13a[i2 + 32];
            p13a[ip][1] = p13a[ip][1] + y13a[j2 + 32];
            i2 = (i2 + e13a[i2 + 32]) & 31;
            j2 = (j2 + f13a[j2 + 32]) & 31;
            h13a[j2][i2] = h13a[j2][i2] + 1.0;
        }
    }
    for (i1 = 0; i1 < 32; i1++)
        for (j1 = 0; j1 < 32; j1++)
            s = s + h13a[i1][j1];
    for (ip = 0; ip < 64; ip++) s = s + p13a[ip][0] + p13a[ip][1];
    return s;
}`,
	Ref: func(loop int) float64 {
		var p [64][4]float64
		var b, c, h [32][32]float64
		var y [96]float64
		var e, f [96]int
		for i := 0; i < 64; i++ {
			p[i][0] = 1.0 + float64(i%13)
			p[i][1] = 2.0 + float64(i%11)
			p[i][2] = 0.5
			p[i][3] = 0.25
		}
		for i := 0; i < 32; i++ {
			for j := 0; j < 32; j++ {
				b[i][j] = 0.01 * float64(i+j+1)
				c[i][j] = 0.02 * float64(i+j+2)
			}
		}
		for i := 0; i < 96; i++ {
			y[i] = 0.1 * float64(i%9)
			e[i] = i % 3
			f[i] = i % 5
		}
		for l := 0; l < loop; l++ {
			for ip := 0; ip < 64; ip++ {
				i1 := int(p[ip][0]) & 31
				j1 := int(p[ip][1]) & 31
				p[ip][2] += b[j1][i1]
				p[ip][3] += c[j1][i1]
				p[ip][0] += p[ip][2]
				p[ip][1] += p[ip][3]
				i2 := int(p[ip][0]) & 31
				j2 := int(p[ip][1]) & 31
				p[ip][0] += y[i2+32]
				p[ip][1] += y[j2+32]
				i2 = (i2 + e[i2+32]) & 31
				j2 = (j2 + f[j2+32]) & 31
				h[j2][i2] += 1.0
			}
		}
		s := 0.0
		for i1 := 0; i1 < 32; i1++ {
			for j1 := 0; j1 < 32; j1++ {
				s += h[i1][j1]
			}
		}
		for ip := 0; ip < 64; ip++ {
			s += p[ip][0] + p[ip][1]
		}
		return s
	},
}

// ---------------------------------------------------------------------
// Kernel 14 — 1-D particle in cell.

var k14 = Kernel{
	ID: 14, Name: "1-D particle in cell",
	Source: `
double vx14a[150], xx14a[150], xi14a[150], ex14a[150], dex14a[150],
       grd14a[150], rx14a[150], rh14a[256], exg14a[151], dexg14a[151];
int ix14a[150], ir14a[150];
void init() {
    int k;
    for (k = 0; k < 150; k++) {
        grd14a[k] = 1.0 + k % 100;
        vx14a[k] = 0.0;
        xx14a[k] = 0.0;
    }
    for (k = 0; k < 151; k++) {
        exg14a[k] = 0.01 * (k + 1);
        dexg14a[k] = 0.001 * (k + 2);
    }
    for (k = 0; k < 256; k++) rh14a[k] = 0.0;
}
double kern(int loop) {
    int l, k;
    double flx = 0.001, s = 0.0;
    for (l = 0; l < loop; l++) {
        for (k = 0; k < 150; k++) {
            vx14a[k] = 0.0;
            xx14a[k] = 0.0;
            ix14a[k] = (int) grd14a[k];
            xi14a[k] = (double) ix14a[k];
            ex14a[k] = exg14a[ix14a[k] - 1];
            dex14a[k] = dexg14a[ix14a[k] - 1];
        }
        for (k = 0; k < 150; k++) {
            vx14a[k] = vx14a[k] + ex14a[k] + (xx14a[k] - xi14a[k]) * dex14a[k];
            xx14a[k] = xx14a[k] + vx14a[k] + flx;
            ir14a[k] = (int) xx14a[k];
            rx14a[k] = xx14a[k] - ir14a[k];
            ir14a[k] = (ir14a[k] & 127) + 1;
            xx14a[k] = rx14a[k] + ir14a[k];
        }
        for (k = 0; k < 150; k++) {
            rh14a[ir14a[k] - 1] = rh14a[ir14a[k] - 1] + 1.0 - rx14a[k];
            rh14a[ir14a[k]] = rh14a[ir14a[k]] + rx14a[k];
        }
    }
    for (k = 0; k < 256; k++) s = s + rh14a[k];
    for (k = 0; k < 150; k++) s = s + xx14a[k];
    return s;
}`,
	Ref: func(loop int) float64 {
		var vx, xx, xi, ex, dex, grd, rx [150]float64
		var rh [256]float64
		var exg, dexg [151]float64
		var ix, ir [150]int
		for k := 0; k < 150; k++ {
			grd[k] = 1.0 + float64(k%100)
		}
		for k := 0; k < 151; k++ {
			exg[k] = 0.01 * float64(k+1)
			dexg[k] = 0.001 * float64(k+2)
		}
		flx := 0.001
		for l := 0; l < loop; l++ {
			for k := 0; k < 150; k++ {
				vx[k] = 0.0
				xx[k] = 0.0
				ix[k] = int(grd[k])
				xi[k] = float64(ix[k])
				ex[k] = exg[ix[k]-1]
				dex[k] = dexg[ix[k]-1]
			}
			for k := 0; k < 150; k++ {
				vx[k] = vx[k] + ex[k] + (xx[k]-xi[k])*dex[k]
				xx[k] = xx[k] + vx[k] + flx
				ir[k] = int(xx[k])
				rx[k] = xx[k] - float64(ir[k])
				ir[k] = (ir[k] & 127) + 1
				xx[k] = rx[k] + float64(ir[k])
			}
			for k := 0; k < 150; k++ {
				rh[ir[k]-1] += 1.0 - rx[k]
				rh[ir[k]] += rx[k]
			}
		}
		s := 0.0
		for k := 0; k < 256; k++ {
			s += rh[k]
		}
		for k := 0; k < 150; k++ {
			s += xx[k]
		}
		return s
	},
}
