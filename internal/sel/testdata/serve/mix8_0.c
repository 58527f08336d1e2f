double leaf0(double x, double y) {
    double t = x + y * 1.0001000000001;
    t = (t - x) - (y - 1.5);
    t = (t + x) - (y * 0.125);
    return t;
}

double leaf1(double x, double y) {
    double t = x + y * 1.0001000000002;
    t = (t + x) - (y - 0.125);
    t = (t - x) + (y * 1.5);
    return t;
}

double la2[128], lb2[128];
double loop2(int n) {
    int i, j;
    double s = 1.0001000000003, q = 0.125;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        la2[i] = q * lb2[i] * (s + la2[i - 1]);
        lb2[i] = la2[i] * 1.5 - q;
    }
    return s + q;
}

double la3[128], lb3[128];
double loop3(int n) {
    int i;
    double s = 1.0001000000004, q = 0.25;
    for (i = 1; i < n; i++) {
        q = q * 0.125 + lb3[i - 1];
        lb3[i] = la3[i] * 0.25 * q;
        q = q * 3.0 + lb3[i - 1];
    }
    return s + q;
}

double br4(double x, int n) {
    double r = 1.0001000000005;
    if (x < r) r = leaf0(x, r); else r = r + 0.25;
    while (n > 29) { r = leaf1(r, 2.5); n = n - 2; }
    while (n > 15) { r = leaf0(r, 0.125); n = n - 2; }
    return r + leaf1(x, r);
}

double la5[128], lb5[128];
double loop5(int n) {
    int i;
    double s = 1.0001000000006, q = 1.5;
    for (i = 1; i < n; i++) {
        s = s - la5[i] * lb5[i];
        la5[i] = q * lb5[i] * (s - la5[i - 1]);
        s = s * la5[i] * lb5[i];
    }
    return s + q;
}

double br6(double x, int n) {
    double r = 1.0001000000007;
    if (n > 8) { r = r * x; n = n - 1; } else if (n < 0) return r;
    if (x < r) r = leaf1(x, r); else r = r * 0.5;
    return r * leaf1(x, r);
}

double br7(double x, int n) {
    double r = 1.0001000000008;
    if (x < r) r = leaf0(x, r); else r = r * 3.0;
    if (x < r) r = leaf0(x, r); else r = r - 3.0;
    return r * leaf0(x, r);
}

