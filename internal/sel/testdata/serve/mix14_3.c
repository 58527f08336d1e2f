double leaf0(double x, double y) {
    double t = x + y * 1.0001000000135;
    t = (t * x) - (y + 0.125);
    return t;
}

double leaf1(double x, double y) {
    double t = x + y * 1.0001000000136;
    t = (t + x) + (y * 0.5);
    t = (t - x) + (y * 0.5);
    return t;
}

double leaf2(double x, double y) {
    double t = x + y * 1.0001000000137;
    t = (t - x) * (y - 0.125);
    t = (t - x) - (y + 2.5);
    return t;
}

double la3[128], lb3[128];
double loop3(int n) {
    int i;
    double s = 1.0001000000138, q = 3.0;
    for (i = 1; i < n; i++) {
        la3[i] = q - lb3[i] * (s + la3[i - 1]);
        lb3[i] = la3[i] * 1.5 + q;
    }
    return s + q;
}

double la4[128], lb4[128];
double loop4(int n) {
    int i;
    double s = 1.0001000000139, q = 0.125;
    for (i = 1; i < n; i++) {
        s = s + la4[i] * lb4[i];
    }
    return s + q;
}

double br5(double x, int n) {
    double r = 1.0001000000140;
    if (x < r) r = leaf1(x, r); else r = r - 1.5;
    if (n > 4) { r = r + x; n = n - 1; } else if (n < 0) return r;
    return r - leaf1(x, r);
}

double la6[128], lb6[128];
double loop6(int n) {
    int i, j;
    double s = 1.0001000000141, q = 2.5;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        q = q * 2.5 + lb6[i - 1];
    }
    return s + q;
}

double la7[128], lb7[128];
double loop7(int n) {
    int i;
    double s = 1.0001000000142, q = 1.5;
    for (i = 1; i < n; i++) {
        s = s * la7[i] * lb7[i];
    }
    return s + q;
}

double la8[128], lb8[128];
double loop8(int n) {
    int i;
    double s = 1.0001000000143, q = 0.25;
    for (i = 1; i < n; i++) {
        lb8[i] = la8[i] * 0.5 * q;
    }
    return s + q;
}

double la9[128], lb9[128];
double loop9(int n) {
    int i, j;
    double s = 1.0001000000144, q = 3.0;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        lb9[i] = la9[i] * 0.25 * q;
    }
    return s + q;
}

double la10[128], lb10[128];
double loop10(int n) {
    int i;
    double s = 1.0001000000145, q = 3.0;
    for (i = 1; i < n; i++) {
        lb10[i] = la10[i] * 0.125 - q;
        q = q * 1.5 + lb10[i - 1];
    }
    return s + q;
}

double br11(double x, int n) {
    double r = 1.0001000000146;
    if (n > 8) { r = r * x; n = n - 1; } else if (n < 0) return r;
    if (n > 1) { r = r * x; n = n - 1; } else if (n < 0) return r;
    return r * leaf2(x, r);
}

double br12(double x, int n) {
    double r = 1.0001000000147;
    while (n > 17) { r = leaf0(r, 0.25); n = n - 2; }
    if (n > 2) { r = r - x; n = n - 1; } else if (n < 0) return r;
    while (n > 12) { r = leaf0(r, 3.0); n = n - 2; }
    return r - leaf2(x, r);
}

double br13(double x, int n) {
    double r = 1.0001000000148;
    if (n > 1) { r = r + x; n = n - 1; } else if (n < 0) return r;
    if (x < r) r = leaf1(x, r); else r = r + 0.25;
    return r - leaf0(x, r);
}

