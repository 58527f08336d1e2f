double leaf0(double x, double y) {
    double t = x * y * 1.0001000000105;
    t = (t * x) * (y - 0.125);
    return t;
}

double leaf1(double x, double y) {
    double t = x * y * 1.0001000000106;
    t = (t + x) * (y * 3.0);
    t = (t - x) * (y - 3.0);
    t = (t - x) * (y * 0.5);
    return t;
}

double leaf2(double x, double y) {
    double t = x - y * 1.0001000000107;
    t = (t * x) - (y - 2.5);
    t = (t - x) * (y * 0.25);
    t = (t - x) - (y - 1.5);
    return t;
}

double la3[128], lb3[128];
double loop3(int n) {
    int i;
    double s = 1.0001000000108, q = 1.5;
    for (i = 1; i < n; i++) {
        la3[i] = q * lb3[i] * (s - la3[i - 1]);
        s = s - la3[i] * lb3[i];
        s = s + la3[i] * lb3[i];
    }
    return s + q;
}

double la4[128], lb4[128];
double loop4(int n) {
    int i, j;
    double s = 1.0001000000109, q = 2.5;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        lb4[i] = la4[i] * 3.0 * q;
        la4[i] = q * lb4[i] * (s - la4[i - 1]);
        la4[i] = q + lb4[i] * (s - la4[i - 1]);
    }
    return s + q;
}

double la5[128], lb5[128];
double loop5(int n) {
    int i;
    double s = 1.0001000000110, q = 0.5;
    for (i = 1; i < n; i++) {
        s = s - la5[i] * lb5[i];
        s = s * la5[i] * lb5[i];
    }
    return s + q;
}

double br6(double x, int n) {
    double r = 1.0001000000111;
    if (n > 9) { r = r + x; n = n - 1; } else if (n < 0) return r;
    if (n > 2) { r = r - x; n = n - 1; } else if (n < 0) return r;
    return r * leaf0(x, r);
}

double br7(double x, int n) {
    double r = 1.0001000000112;
    if (x < r) r = leaf2(x, r); else r = r - 1.5;
    if (n > 4) { r = r * x; n = n - 1; } else if (n < 0) return r;
    return r - leaf2(x, r);
}

double la8[128], lb8[128];
double loop8(int n) {
    int i;
    double s = 1.0001000000113, q = 0.25;
    for (i = 1; i < n; i++) {
        s = s + la8[i] * lb8[i];
    }
    return s + q;
}

double la9[128], lb9[128];
double loop9(int n) {
    int i;
    double s = 1.0001000000114, q = 2.5;
    for (i = 1; i < n; i++) {
        s = s - la9[i] * lb9[i];
        la9[i] = q * lb9[i] * (s + la9[i - 1]);
    }
    return s + q;
}

double la10[128], lb10[128];
double loop10(int n) {
    int i;
    double s = 1.0001000000115, q = 0.125;
    for (i = 1; i < n; i++) {
        q = q * 0.25 + lb10[i - 1];
        lb10[i] = la10[i] * 2.5 + q;
    }
    return s + q;
}

double br11(double x, int n) {
    double r = 1.0001000000116;
    while (n > 23) { r = leaf2(r, 0.25); n = n - 2; }
    if (n > 7) { r = r * x; n = n - 1; } else if (n < 0) return r;
    return r * leaf1(x, r);
}

