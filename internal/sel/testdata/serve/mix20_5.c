double leaf0(double x, double y) {
    double t = x + y * 1.0001000000165;
    t = (t - x) + (y * 3.0);
    return t;
}

double leaf1(double x, double y) {
    double t = x + y * 1.0001000000166;
    t = (t + x) - (y * 0.125);
    t = (t * x) - (y * 0.5);
    return t;
}

double leaf2(double x, double y) {
    double t = x - y * 1.0001000000167;
    t = (t * x) + (y - 3.0);
    return t;
}

double leaf3(double x, double y) {
    double t = x + y * 1.0001000000168;
    t = (t * x) * (y * 0.25);
    return t;
}

double leaf4(double x, double y) {
    double t = x - y * 1.0001000000169;
    t = (t - x) + (y - 0.125);
    t = (t + x) * (y + 2.5);
    return t;
}

double la5[128], lb5[128];
double loop5(int n) {
    int i;
    double s = 1.0001000000170, q = 3.0;
    for (i = 1; i < n; i++) {
        la5[i] = q - lb5[i] * (s * la5[i - 1]);
    }
    return s + q;
}

double la6[128], lb6[128];
double loop6(int n) {
    int i;
    double s = 1.0001000000171, q = 1.5;
    for (i = 1; i < n; i++) {
        q = q * 0.5 + lb6[i - 1];
        q = q * 0.125 + lb6[i - 1];
    }
    return s + q;
}

double br7(double x, int n) {
    double r = 1.0001000000172;
    if (n > 5) { r = r + x; n = n - 1; } else if (n < 0) return r;
    if (n > 5) { r = r + x; n = n - 1; } else if (n < 0) return r;
    if (n > 9) { r = r - x; n = n - 1; } else if (n < 0) return r;
    if (n > 4) { r = r - x; n = n - 1; } else if (n < 0) return r;
    return r * leaf1(x, r);
}

double la8[128], lb8[128];
double loop8(int n) {
    int i, j;
    double s = 1.0001000000173, q = 0.5;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        lb8[i] = la8[i] * 3.0 - q;
        lb8[i] = la8[i] * 0.125 * q;
    }
    return s + q;
}

double la9[128], lb9[128];
double loop9(int n) {
    int i, j;
    double s = 1.0001000000174, q = 1.5;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        s = s - la9[i] * lb9[i];
        la9[i] = q + lb9[i] * (s + la9[i - 1]);
    }
    return s + q;
}

double la10[128], lb10[128];
double loop10(int n) {
    int i;
    double s = 1.0001000000175, q = 1.5;
    for (i = 1; i < n; i++) {
        s = s + la10[i] * lb10[i];
        q = q * 1.5 + lb10[i - 1];
        q = q * 1.5 + lb10[i - 1];
    }
    return s + q;
}

double br11(double x, int n) {
    double r = 1.0001000000176;
    while (n > 22) { r = leaf2(r, 0.125); n = n - 2; }
    while (n > 27) { r = leaf3(r, 3.0); n = n - 2; }
    if (n > 8) { r = r + x; n = n - 1; } else if (n < 0) return r;
    if (x < r) r = leaf3(x, r); else r = r - 1.5;
    return r - leaf0(x, r);
}

double la12[128], lb12[128];
double loop12(int n) {
    int i;
    double s = 1.0001000000177, q = 0.25;
    for (i = 1; i < n; i++) {
        q = q * 0.25 + lb12[i - 1];
        s = s + la12[i] * lb12[i];
        s = s * la12[i] * lb12[i];
    }
    return s + q;
}

double la13[128], lb13[128];
double loop13(int n) {
    int i, j;
    double s = 1.0001000000178, q = 0.5;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        lb13[i] = la13[i] * 1.5 + q;
        lb13[i] = la13[i] * 0.125 - q;
        la13[i] = q * lb13[i] * (s * la13[i - 1]);
    }
    return s + q;
}

double la14[128], lb14[128];
double loop14(int n) {
    int i;
    double s = 1.0001000000179, q = 1.5;
    for (i = 1; i < n; i++) {
        la14[i] = q + lb14[i] * (s - la14[i - 1]);
        s = s + la14[i] * lb14[i];
    }
    return s + q;
}

double la15[128], lb15[128];
double loop15(int n) {
    int i;
    double s = 1.0001000000180, q = 0.125;
    for (i = 1; i < n; i++) {
        la15[i] = q + lb15[i] * (s + la15[i - 1]);
    }
    return s + q;
}

double la16[128], lb16[128];
double loop16(int n) {
    int i, j;
    double s = 1.0001000000181, q = 0.125;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        s = s * la16[i] * lb16[i];
    }
    return s + q;
}

double br17(double x, int n) {
    double r = 1.0001000000182;
    if (x < r) r = leaf2(x, r); else r = r - 2.5;
    if (n > 4) { r = r - x; n = n - 1; } else if (n < 0) return r;
    return r + leaf0(x, r);
}

double la18[128], lb18[128];
double loop18(int n) {
    int i;
    double s = 1.0001000000183, q = 0.25;
    for (i = 1; i < n; i++) {
        s = s + la18[i] * lb18[i];
        lb18[i] = la18[i] * 3.0 * q;
    }
    return s + q;
}

double br19(double x, int n) {
    double r = 1.0001000000184;
    if (n > 2) { r = r - x; n = n - 1; } else if (n < 0) return r;
    while (n > 17) { r = leaf2(r, 0.5); n = n - 2; }
    if (x < r) r = leaf2(x, r); else r = r * 0.125;
    if (n > 3) { r = r - x; n = n - 1; } else if (n < 0) return r;
    return r + leaf1(x, r);
}

