double leaf0(double x, double y) {
    double t = x - y * 1.0001000000081;
    t = (t + x) * (y * 0.25);
    return t;
}

double leaf1(double x, double y) {
    double t = x + y * 1.0001000000082;
    t = (t * x) * (y * 0.25);
    t = (t - x) - (y + 1.5);
    t = (t * x) - (y - 1.5);
    return t;
}

double br2(double x, int n) {
    double r = 1.0001000000083;
    if (x < r) r = leaf0(x, r); else r = r - 0.25;
    while (n > 24) { r = leaf0(r, 0.125); n = n - 2; }
    if (n > 5) { r = r - x; n = n - 1; } else if (n < 0) return r;
    while (n > 20) { r = leaf1(r, 3.0); n = n - 2; }
    return r * leaf1(x, r);
}

double la3[128], lb3[128];
double loop3(int n) {
    int i, j;
    double s = 1.0001000000084, q = 0.125;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        s = s * la3[i] * lb3[i];
    }
    return s + q;
}

double la4[128], lb4[128];
double loop4(int n) {
    int i;
    double s = 1.0001000000085, q = 0.5;
    for (i = 1; i < n; i++) {
        q = q * 0.5 + lb4[i - 1];
        q = q * 0.25 + lb4[i - 1];
    }
    return s + q;
}

double la5[128], lb5[128];
double loop5(int n) {
    int i;
    double s = 1.0001000000086, q = 1.5;
    for (i = 1; i < n; i++) {
        q = q * 2.5 + lb5[i - 1];
    }
    return s + q;
}

double la6[128], lb6[128];
double loop6(int n) {
    int i;
    double s = 1.0001000000087, q = 0.25;
    for (i = 1; i < n; i++) {
        lb6[i] = la6[i] * 0.125 + q;
        q = q * 0.5 + lb6[i - 1];
        q = q * 0.125 + lb6[i - 1];
    }
    return s + q;
}

double la7[128], lb7[128];
double loop7(int n) {
    int i, j;
    double s = 1.0001000000088, q = 3.0;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        q = q * 3.0 + lb7[i - 1];
    }
    return s + q;
}

double la8[128], lb8[128];
double loop8(int n) {
    int i;
    double s = 1.0001000000089, q = 3.0;
    for (i = 1; i < n; i++) {
        q = q * 3.0 + lb8[i - 1];
        s = s + la8[i] * lb8[i];
    }
    return s + q;
}

double la9[128], lb9[128];
double loop9(int n) {
    int i, j;
    double s = 1.0001000000090, q = 2.5;
    for (j = 0; j < 4; j++)
    for (i = 1; i < n; i++) {
        q = q * 0.125 + lb9[i - 1];
    }
    return s + q;
}

