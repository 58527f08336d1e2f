double leaf0(double x, double y) {
    double t = x * y * 1.0001000000149;
    t = (t - x) * (y * 0.25);
    t = (t - x) * (y * 0.125);
    return t;
}

double leaf1(double x, double y) {
    double t = x + y * 1.0001000000150;
    t = (t * x) - (y + 1.5);
    t = (t * x) + (y * 0.25);
    t = (t - x) - (y * 2.5);
    return t;
}

double leaf2(double x, double y) {
    double t = x - y * 1.0001000000151;
    t = (t - x) * (y + 3.0);
    t = (t * x) - (y * 1.5);
    return t;
}

double leaf3(double x, double y) {
    double t = x + y * 1.0001000000152;
    t = (t * x) + (y - 2.5);
    return t;
}

double la4[128], lb4[128];
double loop4(int n) {
    int i;
    double s = 1.0001000000153, q = 1.5;
    for (i = 1; i < n; i++) {
        s = s * la4[i] * lb4[i];
        la4[i] = q - lb4[i] * (s - la4[i - 1]);
    }
    return s + q;
}

double la5[128], lb5[128];
double loop5(int n) {
    int i, j;
    double s = 1.0001000000154, q = 0.125;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        lb5[i] = la5[i] * 0.25 + q;
    }
    return s + q;
}

double br6(double x, int n) {
    double r = 1.0001000000155;
    while (n > 20) { r = leaf1(r, 0.25); n = n - 2; }
    if (x < r) r = leaf0(x, r); else r = r * 2.5;
    if (n > 4) { r = r * x; n = n - 1; } else if (n < 0) return r;
    return r - leaf2(x, r);
}

double br7(double x, int n) {
    double r = 1.0001000000156;
    if (n > 8) { r = r + x; n = n - 1; } else if (n < 0) return r;
    if (x < r) r = leaf0(x, r); else r = r * 3.0;
    if (n > 4) { r = r + x; n = n - 1; } else if (n < 0) return r;
    return r + leaf0(x, r);
}

double la8[128], lb8[128];
double loop8(int n) {
    int i;
    double s = 1.0001000000157, q = 3.0;
    for (i = 1; i < n; i++) {
        la8[i] = q - lb8[i] * (s * la8[i - 1]);
        q = q * 1.5 + lb8[i - 1];
        la8[i] = q * lb8[i] * (s * la8[i - 1]);
    }
    return s + q;
}

double la9[128], lb9[128];
double loop9(int n) {
    int i, j;
    double s = 1.0001000000158, q = 1.5;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        q = q * 0.25 + lb9[i - 1];
    }
    return s + q;
}

double br10(double x, int n) {
    double r = 1.0001000000159;
    if (n > 5) { r = r * x; n = n - 1; } else if (n < 0) return r;
    if (n > 3) { r = r * x; n = n - 1; } else if (n < 0) return r;
    return r * leaf1(x, r);
}

double la11[128], lb11[128];
double loop11(int n) {
    int i;
    double s = 1.0001000000160, q = 0.5;
    for (i = 1; i < n; i++) {
        la11[i] = q - lb11[i] * (s - la11[i - 1]);
        la11[i] = q * lb11[i] * (s * la11[i - 1]);
        la11[i] = q - lb11[i] * (s + la11[i - 1]);
    }
    return s + q;
}

double la12[128], lb12[128];
double loop12(int n) {
    int i;
    double s = 1.0001000000161, q = 0.125;
    for (i = 1; i < n; i++) {
        lb12[i] = la12[i] * 0.125 + q;
        lb12[i] = la12[i] * 1.5 - q;
        lb12[i] = la12[i] * 2.5 + q;
    }
    return s + q;
}

double la13[128], lb13[128];
double loop13(int n) {
    int i;
    double s = 1.0001000000162, q = 1.5;
    for (i = 1; i < n; i++) {
        s = s * la13[i] * lb13[i];
    }
    return s + q;
}

double la14[128], lb14[128];
double loop14(int n) {
    int i;
    double s = 1.0001000000163, q = 1.5;
    for (i = 1; i < n; i++) {
        la14[i] = q + lb14[i] * (s + la14[i - 1]);
        la14[i] = q - lb14[i] * (s - la14[i - 1]);
        q = q * 0.125 + lb14[i - 1];
    }
    return s + q;
}

double la15[128], lb15[128];
double loop15(int n) {
    int i;
    double s = 1.0001000000164, q = 2.5;
    for (i = 1; i < n; i++) {
        lb15[i] = la15[i] * 0.125 + q;
    }
    return s + q;
}

